package retrieval

import (
	"testing"

	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/workload"
)

// hybridPin is one request's search schedule and served hit rate as
// the vLiteRAG engine produced them.
type hybridPin struct {
	id          int
	start, done des.Time
	hit         float64
}

// pinnedHybridRun drives 40 requests in two waves (so dynamic batching
// forms multi-request batches) through a fresh vLiteRAG engine in one
// of three configurations — the plain plan, a precision-refined plan
// (every hot cluster SQ8, every cold cluster NVMe-demoted), and the
// plain plan with shard 0 mid-reload — and returns the per-request
// record in completion order plus the engine's recall gain.
func pinnedHybridRun(t *testing.T, kase string) ([]hybridPin, float64) {
	t.Helper()
	f := setup(t)
	plan := f.plan(t, 0.3, f.node.NumGPUs)
	cfg := f.cfg
	var sim des.Sim
	var done []*workload.Request
	cfg.Sim = &sim
	cfg.Forward = func(r *workload.Request) { done = append(done, r) }
	if kase == "precision" {
		cfg.NVMe = f.node.NVMe
		plan.AttachPrecision(sqPrecision(f, plan, 0.04, true))
	}
	e := newHybrid(t, cfg, plan, gpu.NewStates(f.node), f.gm)
	if kase == "refreshing" {
		e.SetShardRefreshing(0, true)
	}
	reqs := f.requests(40)
	sim.At(0, func() {
		for _, r := range reqs[:25] {
			e.Submit(r)
		}
	})
	sim.At(des.Time(1e6), func() {
		for _, r := range reqs[25:] {
			e.Submit(r)
		}
	})
	sim.Run()
	out := make([]hybridPin, len(done))
	for i, r := range done {
		out[i] = hybridPin{r.ID, r.SearchStart, r.SearchDone, r.HitRate}
	}
	return out, e.RecallGain()
}

// hybridPinned holds the per-request schedules the vLiteRAG engine
// produced for each pinnedHybridRun case before the single-tenant
// engine folded into the tenant-slot engine. Any change to a value
// here is a behaviour change of the engine, not a refactor.
var hybridPinned = map[string]struct {
	gain float64
	reqs []hybridPin
}{
	"plain": {gain: 0, reqs: []hybridPin{
		{0, 0, 26972615, 1},
		{1, 26772615, 129799111, 1},
		{2, 26772615, 129799111, 1},
		{3, 26772615, 129799111, 0.3750000004868843},
		{4, 26772615, 129799111, 0.5555555553632062},
		{5, 26772615, 129799111, 0.5454545459695966},
		{6, 26772615, 129799111, 0.7000000014022267},
		{7, 26772615, 129799111, 0.6666666678207628},
		{8, 26772615, 129799111, 0.11111111072641244},
		{9, 26772615, 142714629, 0.33333333391038145},
		{10, 26772615, 152743320, 0.5555555553632062},
		{11, 26772615, 162772012, 0.5555555553632062},
		{12, 26772615, 180322222, 0.12499999951311569},
		{13, 26772615, 192858086, 0.5000000007790149},
		{14, 26772615, 210408296, 0.12499999951311569},
		{15, 26772615, 225451333, 0.33333333391038145},
		{16, 26772615, 235480025, 0.5},
		{17, 26772615, 236420214, 0.9552238814300004},
		{18, 26772615, 246448906, 0.6000000003116059},
		{19, 26772615, 253970424, 0.6666666678207628},
		{20, 26772615, 261491943, 0.6250000014606529},
		{21, 26772615, 276534980, 0.4000000012464239},
		{22, 26772615, 284056499, 0.6250000014606529},
		{23, 26772615, 296592363, 0.4444444446367938},
		{24, 26772615, 304113881, 0.6666666678207628},
		{25, 26772615, 316649746, 0.5000000007790149},
		{26, 26772615, 324171264, 0.6250000014606529},
		{27, 26772615, 339214301, 0.2500000009737686},
		{28, 26772615, 354257339, 0.4000000012464239},
		{29, 26772615, 369300376, 0.4000000012464239},
		{30, 26772615, 384343413, 0.4000000012464239},
		{31, 26772615, 401893623, 0.12499999951311569},
		{32, 26772615, 406907969, 0.8000000009348178},
		{33, 26772615, 429472524, 0},
		{34, 26772615, 442008389, 0.3750000004868843},
		{35, 26772615, 447022734, 0.7777777785471752},
		{36, 26772615, 464572944, 0.36363636350760087},
		{37, 26772615, 472094463, 0.6666666678207628},
		{38, 26772615, 484630327, 0.4444444446367938},
		{39, 26772615, 497166192, 0.4444444446367938},
	}},
	"precision": {gain: 0.020536536931980758, reqs: []hybridPin{
		{0, 0, 25622461, 1},
		{1, 25422461, 72237869, 1},
		{2, 25422461, 72237869, 1},
		{3, 25422461, 116228930, 0.3750000004868843},
		{4, 25422461, 164315595, 0.5555555553632062},
		{5, 25422461, 224423928, 0.5454545459695966},
		{6, 25422461, 260488927, 0.7000000014022267},
		{7, 25422461, 296553926, 0.6666666678207628},
		{8, 25422461, 392727258, 0.11111111072641244},
		{9, 25422461, 464857256, 0.33333333391038145},
		{10, 25422461, 512943922, 0.5555555553632062},
		{11, 25422461, 561030588, 0.5555555553632062},
		{12, 25422461, 645182253, 0.12499999951311569},
		{13, 25422461, 705290585, 0.5000000007790149},
		{14, 25422461, 789442250, 0.12499999951311569},
		{15, 25422461, 861572249, 0.33333333391038145},
		{16, 25422461, 909658914, 0.5},
		{17, 25422461, 914167039, 0.9552238814300004},
		{18, 25422461, 962253705, 0.6000000003116059},
		{19, 25422461, 998318704, 0.6666666678207628},
		{20, 25422461, 1034383703, 0.6250000014606529},
		{21, 25422461, 1106513702, 0.4000000012464239},
		{22, 25422461, 1142578701, 0.6250000014606529},
		{23, 25422461, 1202687033, 0.4444444446367938},
		{24, 25422461, 1238752032, 0.6666666678207628},
		{25, 25422461, 1298860365, 0.5000000007790149},
		{26, 25422461, 1334925364, 0.6250000014606529},
		{27, 25422461, 1407055362, 0.2500000009737686},
		{28, 25422461, 1479185361, 0.4000000012464239},
		{29, 25422461, 1551315359, 0.4000000012464239},
		{30, 25422461, 1623445358, 0.4000000012464239},
		{31, 25422461, 1707597023, 0.12499999951311569},
		{32, 25422461, 1731640356, 0.8000000009348178},
		{33, 25422461, 1839835354, 0},
		{34, 25422461, 1899943686, 0.3750000004868843},
		{35, 25422461, 1923987019, 0.7777777785471752},
		{36, 25422461, 2008138684, 0.36363636350760087},
		{37, 25422461, 2044203683, 0.6666666678207628},
		{38, 25422461, 2104312015, 0.4444444446367938},
		{39, 25422461, 2164420348, 0.4444444446367938},
	}},
	"refreshing": {gain: 0, reqs: []hybridPin{
		{0, 0, 65338878, 0.8000000009348178},
		{1, 65138878, 123906205, 0.6666666678207628},
		{2, 65138878, 123906205, 0.5555555553632062},
		{3, 65138878, 128430262, 0.2500000009737686},
		{4, 65138878, 143473299, 0.33333333391038145},
		{5, 65138878, 161023509, 0.36363636350760087},
		{6, 65138878, 173559373, 0.5000000007790149},
		{7, 65138878, 188602410, 0.33333333391038145},
		{8, 65138878, 211166966, 0},
		{9, 65138878, 231224349, 0.11111111072641244},
		{10, 65138878, 248774559, 0.22222222145282478},
		{11, 65138878, 266324769, 0.22222222145282478},
		{12, 65138878, 283874979, 0.12499999951311569},
		{13, 65138878, 303932362, 0.20000000062321188},
		{14, 65138878, 323989745, 0},
		{15, 65138878, 346554300, 0},
		{16, 65138878, 359090165, 0.3750000004868843},
		{17, 65138878, 367551873, 0.5970149254286667},
		{18, 65138878, 382594910, 0.4000000012464239},
		{19, 65138878, 397637947, 0.33333333391038145},
		{20, 65138878, 407666639, 0.5},
		{21, 65138878, 427724022, 0.20000000062321188},
		{22, 65138878, 442767059, 0.2500000009737686},
		{23, 65138878, 462824442, 0.11111111072641244},
		{24, 65138878, 475360306, 0.4444444446367938},
		{25, 65138878, 495417689, 0.20000000062321188},
		{26, 65138878, 505446380, 0.5},
		{27, 65138878, 522996590, 0.12499999951311569},
		{28, 65138878, 545561146, 0.1000000010906209},
		{29, 65138878, 565618529, 0.20000000062321188},
		{30, 65138878, 585675912, 0.20000000062321188},
		{31, 65138878, 605733295, 0},
		{32, 65138878, 615761986, 0.6000000003116059},
		{33, 65138878, 638326542, 0},
		{34, 65138878, 653369579, 0.2500000009737686},
		{35, 65138878, 665905443, 0.4444444446367938},
		{36, 65138878, 688469999, 0.18181818246199577},
		{37, 65138878, 703513036, 0.33333333391038145},
		{38, 65138878, 716048900, 0.4444444446367938},
		{39, 65138878, 733599111, 0.22222222145282478},
	}},
}

// TestHybridPinnedSchedule: the vLiteRAG engine reproduces the pinned
// SearchStart, SearchDone and HitRate of every request, in completion
// order, on the plain, precision-refined and shard-refreshing cases.
func TestHybridPinnedSchedule(t *testing.T) {
	for kase, want := range hybridPinned {
		t.Run(kase, func(t *testing.T) {
			got, gain := pinnedHybridRun(t, kase)
			if len(got) != len(want.reqs) {
				t.Fatalf("completed %d requests, pinned %d", len(got), len(want.reqs))
			}
			for i, w := range want.reqs {
				if got[i] != w {
					t.Fatalf("completion %d: got %+v, pinned %+v", i, got[i], w)
				}
			}
			if gain != want.gain {
				t.Fatalf("recall gain %v, pinned %v", gain, want.gain)
			}
		})
	}
}

// TestMultiTenantMixedBatchRoutesPerTenant: two tenants with disjoint
// coverage (one fully resident, one CPU-only) inside one batch must
// record tenant-appropriate hit rates and all complete.
func TestMultiTenantMixedBatchRoutesPerTenant(t *testing.T) {
	f := setup(t)
	full := f.plan(t, 1.0, f.node.NumGPUs)
	none := f.plan(t, 0.0, f.node.NumGPUs)

	var done []*workload.Request
	cfg := f.cfg
	cfg.Forward = func(r *workload.Request) { done = append(done, r) }
	e, err := NewHybrid(cfg, []TenantSlot{
		{W: f.w, Plan: full, CPUModel: cfg.CPUModel},
		{W: f.w, Plan: none, CPUModel: cfg.CPUModel},
	}, f.gpus, f.gm)
	if err != nil {
		t.Fatal(err)
	}
	reqs := f.requests(20)
	for i, r := range reqs {
		r.Tenant = i % 2
	}
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(done) != 20 {
		t.Fatalf("forwarded %d of 20", len(done))
	}
	for _, r := range done {
		switch r.Tenant {
		case 0:
			if r.HitRate != 1 {
				t.Errorf("fully resident tenant recorded hit rate %v", r.HitRate)
			}
		case 1:
			if r.HitRate != 0 {
				t.Errorf("CPU-only tenant recorded hit rate %v", r.HitRate)
			}
		}
	}
	if e.AvgBatch() <= 1 {
		t.Errorf("no dynamic batching happened: avg batch %v", e.AvgBatch())
	}
}

// TestMultiTenantStrayTenantClamps: out-of-range tenant IDs ride slot 0
// rather than panicking.
func TestMultiTenantStrayTenantClamps(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 0.5, f.node.NumGPUs)
	e, err := NewHybrid(f.cfg, []TenantSlot{{W: f.w, Plan: plan, CPUModel: f.cfg.CPUModel}}, f.gpus, f.gm)
	if err != nil {
		t.Fatal(err)
	}
	req := f.requests(1)[0]
	req.Tenant = 7
	f.sim.At(0, func() { e.Submit(req) })
	f.sim.Run()
	if len(f.done) != 1 {
		t.Fatal("stray-tenant request never completed")
	}
}

func TestMultiTenantValidation(t *testing.T) {
	f := setup(t)
	if _, err := NewHybrid(f.cfg, nil, f.gpus, f.gm); err == nil {
		t.Error("empty slot set accepted")
	}
	if _, err := NewHybrid(f.cfg, []TenantSlot{{W: f.w}}, f.gpus, f.gm); err == nil {
		t.Error("nil plan accepted")
	}
	badShards := f.plan(t, 0.5, 2)
	if f.node.NumGPUs == 2 {
		t.Skip("fixture node has 2 GPUs; shard-mismatch case vacuous")
	}
	if _, err := NewHybrid(f.cfg, []TenantSlot{{W: f.w, Plan: badShards, CPUModel: f.cfg.CPUModel}}, f.gpus, f.gm); err == nil {
		t.Error("shard/GPU mismatch accepted")
	}
}
