package retrieval

import (
	"testing"

	"vectorliterag/internal/des"
)

// TestShardRefreshDivertsToCPU exercises the §IV-B3 service-continuity
// path: while a shard reloads, its clusters are served by the CPU —
// slower, but no query is dropped.
func TestShardRefreshDivertsToCPU(t *testing.T) {
	run := func(refresh bool) (int, des.Time) {
		f := setup(t)
		plan := f.plan(t, 0.3, 8)
		hy := newHybrid(t, f.cfg, plan, f.gpus, f.gm)
		if refresh {
			for g := 0; g < plan.NumShards; g++ {
				hy.SetShardRefreshing(g, true)
			}
		}
		reqs := f.requests(8)
		f.sim.At(0, func() {
			for _, r := range reqs {
				hy.Submit(r)
			}
		})
		f.sim.Run()
		var last des.Time
		for _, r := range reqs {
			if r.SearchDone > last {
				last = r.SearchDone
			}
		}
		return len(f.done), last
	}
	nNormal, tNormal := run(false)
	nRefresh, tRefresh := run(true)
	if nNormal != 8 || nRefresh != 8 {
		t.Fatalf("queries dropped: normal=%d refresh=%d", nNormal, nRefresh)
	}
	if tRefresh <= tNormal {
		t.Fatalf("CPU fallback during refresh should be slower: %v vs %v", tRefresh, tNormal)
	}
}

// TestPartialRefreshOnlyAffectsThatShard verifies refresh granularity:
// refreshing one shard must cost less than refreshing all of them.
func TestPartialRefreshOnlyAffectsThatShard(t *testing.T) {
	run := func(shards []int) des.Time {
		f := setup(t)
		plan := f.plan(t, 0.3, 8)
		hy := newHybrid(t, f.cfg, plan, f.gpus, f.gm)
		for _, g := range shards {
			hy.SetShardRefreshing(g, true)
		}
		reqs := f.requests(8)
		f.sim.At(0, func() {
			for _, r := range reqs {
				hy.Submit(r)
			}
		})
		f.sim.Run()
		var last des.Time
		for _, r := range reqs {
			if r.SearchDone > last {
				last = r.SearchDone
			}
		}
		return last
	}
	one := run([]int{0})
	all := run([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if one >= all {
		t.Fatalf("single-shard refresh (%v) not cheaper than full refresh (%v)", one, all)
	}
}

// TestSetPlanSwapsAtomically verifies the plan swap the update cycle
// performs once new shards are loaded.
func TestSetPlanSwapsAtomically(t *testing.T) {
	f := setup(t)
	oldPlan := f.plan(t, 0.1, 8)
	newPlan := f.plan(t, 0.5, 8)
	hy := newHybrid(t, f.cfg, oldPlan, f.gpus, f.gm)
	if hy.Plan() != oldPlan {
		t.Fatal("initial plan not installed")
	}
	hy.SetShardRefreshing(0, true)
	hy.SetPlan(newPlan)
	if hy.Plan() != newPlan {
		t.Fatal("plan swap failed")
	}
	// Refresh flags reset with the new plan.
	reqs := f.requests(6)
	f.sim.At(0, func() {
		for _, r := range reqs {
			hy.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != 6 {
		t.Fatalf("forwarded %d after plan swap", len(f.done))
	}
	// More coverage => GPUs must have been used.
	busy := false
	for _, g := range f.gpus {
		if g.RetrievalBusyUntil() > 0 {
			busy = true
		}
	}
	if !busy {
		t.Fatal("new plan's shards never scanned")
	}
}
