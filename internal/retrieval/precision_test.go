package retrieval

import (
	"testing"

	"vectorliterag/internal/splitter"
)

// sqPrecision marks every hot cluster SQ8 at the given delta; nvme
// additionally demotes every cold cluster to the NVMe tier.
func sqPrecision(f *fixture, plan *splitter.Plan, delta float64, nvme bool) *splitter.Precision {
	nlist := len(f.prof.Counts)
	prec := &splitter.Precision{
		SQ:      make([]bool, nlist),
		NVMe:    make([]bool, nlist),
		Deltas:  make([]float64, nlist),
		SQRatio: 4,
	}
	for c := 0; c < nlist; c++ {
		if plan.IsHot(c) {
			prec.SQ[c] = true
			prec.Deltas[c] = delta
			prec.SQClusters++
		} else if nvme {
			prec.NVMe[c] = true
			prec.NVMeClusters++
		}
	}
	return prec
}

// runHybrid drives n requests through a fresh hybrid engine over the
// given plan and returns the engine.
func runHybrid(t *testing.T, f *fixture, plan *splitter.Plan, n int) *Hybrid {
	t.Helper()
	e := newHybrid(t, f.cfg, plan, f.gpus, f.gm)
	reqs := f.requests(n)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != n {
		t.Fatalf("forwarded %d of %d", len(f.done), n)
	}
	return e
}

func TestHybridRecallGainAccrues(t *testing.T) {
	f := setup(t)
	f.cfg.NVMe = f.node.NVMe
	plan := f.plan(t, 0.3, 8)
	const delta = 0.04
	plan.AttachPrecision(sqPrecision(f, plan, delta, false))
	e := runHybrid(t, f, plan, 8)
	gain := e.RecallGain()
	if gain <= 0 || gain > delta {
		t.Fatalf("served recall gain %v outside (0, %v]: every SQ cluster carries delta %v", gain, delta, delta)
	}
	// Zero coverage cannot touch an SQ cluster, so the gain is the hot
	// byte share of the scan — strictly below the uniform delta.
	if gain >= delta {
		t.Fatalf("gain %v not weighted by the scanned byte share", gain)
	}
}

func TestHybridNilPrecisionReportsZeroGain(t *testing.T) {
	f := setup(t)
	e := runHybrid(t, f, f.plan(t, 0.3, 8), 6)
	if g := e.RecallGain(); g != 0 {
		t.Fatalf("classic plan reported recall gain %v", g)
	}
}

func TestHybridSQScansNotSlower(t *testing.T) {
	// The SQ8 kernel prices below the PQ kernel even at 4x bytes, so
	// upgrading hot clusters must never lengthen a batch.
	run := func(withSQ bool) int64 {
		f := setup(t)
		f.cfg.NVMe = f.node.NVMe
		plan := f.plan(t, 0.3, 8)
		if withSQ {
			plan.AttachPrecision(sqPrecision(f, plan, 0.04, false))
		}
		runHybrid(t, f, plan, 8)
		return int64(f.done[len(f.done)-1].SearchDone)
	}
	if sq, pq := run(true), run(false); sq > pq {
		t.Fatalf("SQ8 upgrade lengthened the batch: %d vs %d", sq, pq)
	}
}

func TestHybridNVMeDemotionAddsLatency(t *testing.T) {
	// Demoted cold clusters pay the page-read fetch before the CPU scan;
	// with every cold cluster demoted the batch must finish strictly
	// later than the all-DRAM plan.
	run := func(withNVMe bool) int64 {
		f := setup(t)
		f.cfg.NVMe = f.node.NVMe
		plan := f.plan(t, 0.3, 8)
		if withNVMe {
			prec := sqPrecision(f, plan, 0, true)
			// NVMe only: no SQ upgrades, so the GPU path is untouched.
			for c := range prec.SQ {
				prec.SQ[c] = false
			}
			prec.SQClusters = 0
			plan.AttachPrecision(prec)
		}
		runHybrid(t, f, plan, 8)
		return int64(f.done[len(f.done)-1].SearchDone)
	}
	if nv, dram := run(true), run(false); nv <= dram {
		t.Fatalf("NVMe demotion did not add fetch latency: %d vs %d", nv, dram)
	}
}

func TestMultiTenantRecallGainAccrues(t *testing.T) {
	f := setup(t)
	f.cfg.NVMe = f.node.NVMe
	plan := f.plan(t, 0.3, f.node.NumGPUs)
	const delta = 0.04
	plan.AttachPrecision(sqPrecision(f, plan, delta, false))
	e, err := NewHybrid(f.cfg, []TenantSlot{{W: f.w, Plan: plan, CPUModel: f.cfg.CPUModel}}, f.gpus, f.gm)
	if err != nil {
		t.Fatal(err)
	}
	reqs := f.requests(8)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != 8 {
		t.Fatalf("forwarded %d of 8", len(f.done))
	}
	var rr RecallReporter = e
	if g := rr.RecallGain(); g <= 0 || g >= delta {
		t.Fatalf("served recall gain %v outside (0, %v)", g, delta)
	}
}
