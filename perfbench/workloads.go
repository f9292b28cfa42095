package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// Run windows shared by every workload: the excluded warmup prefix and
// the settling window after the last arrival (the rag defaults, spelled
// out because the benchmark filters records by them).
const (
	warmup = 20 * time.Second
	drain  = 120 * time.Second
)

// deployment pairs a model with its node, as in the paper's §V-A.
type deployment struct {
	model llm.ModelSpec
	node  hw.Node
}

func deployments() []deployment {
	return []deployment{
		{llm.Llama3_8B, hw.L40SNode()},
		{llm.Qwen3_32B, hw.H100Node()},
		{llm.Llama3_70B, hw.H100Node()},
	}
}

// qwen is the single-deployment workloads' node: Qwen3-32B on H100s.
func qwen() deployment { return deployments()[1] }

// scale sizes the workloads. fullScale is the benchmark; quickScale
// shrinks every dimension so the benchmark's own tests run in seconds.
type scale struct {
	gen           dataset.GenConfig
	sweepSpecs    []dataset.Spec
	sweepDeps     []deployment
	ladder        []float64 // rate points as fractions of bare LLM capacity
	sweepArrivals time.Duration
	fleetDur      time.Duration
	liveDur       time.Duration
	failoverDur   time.Duration
	faults        int
	maxVariants   int // caps workloadDef.variants (0: no cap)
	minIters      int // fewest timed iterations on a single-run workload
}

func fullScale() scale {
	return scale{
		gen:           dataset.DefaultGen(),
		sweepSpecs:    []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K},
		sweepDeps:     deployments(),
		ladder:        []float64{0.4, 0.55, 0.7, 0.8, 0.87, 0.93, 0.98, 1.05},
		sweepArrivals: 120 * time.Second,
		fleetDur:      300 * time.Second,
		liveDur:       600 * time.Second,
		failoverDur:   600 * time.Second,
		faults:        12,
		minIters:      2 * minBeyond,
	}
}

func quickScale() scale {
	return scale{
		gen: dataset.GenConfig{
			NCenters: 32, PerCenter: 64, Dim: 16,
			PhysNList: 32, PhysNProbe: 8, Templates: 128,
		},
		sweepSpecs:    []dataset.Spec{dataset.Orcas1K},
		sweepDeps:     []deployment{qwen()},
		ladder:        []float64{0.5, 1.0},
		sweepArrivals: 40 * time.Second,
		fleetDur:      60 * time.Second,
		liveDur:       60 * time.Second,
		failoverDur:   60 * time.Second,
		faults:        3,
		maxVariants:   1,
		minIters:      2,
	}
}

// env is one seeded variant of a workload: the seed of every random
// stream it generates, and the corpora built from it.
type env struct {
	seed    uint64
	sc      scale
	corpora map[string]*dataset.Workload
}

func (e *env) corpus(s dataset.Spec) *dataset.Workload { return e.corpora[s.Name] }

// iteration is one serving run of a workload. run receives the tracer
// (nil when untraced) and the span and iteration ids its spans hang
// under.
type iteration struct {
	key     string
	variant int
	run     func(t *tracer, parent, iter int) (*sample, error)
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name    string
	why     string
	corpora []dataset.Spec
	// serveWorkers is how many worker goroutines a serving run uses.
	serveWorkers int
	// variants is how many seeded variants an untraced run sets up and
	// serves. The simulated metrics vary with the seed — each seed
	// generates its own corpora, arrivals and faults — so each is
	// reported as the median over the variants; setup_s is the median
	// of their set-ups. The traced run serves the first variant only.
	variants int
	// fullPass makes the timed phase cover every iteration at least once.
	fullPass bool
	// iterations returns one pass of the workload over one variant, in
	// run order.
	iterations func(e *env) ([]iteration, error)
	// oneWorker, when set, is the workload's run at 1 worker: its
	// schedule must match the serveWorkers run bit for bit.
	oneWorker func(e *env) iteration
	// headline adds the workload's own end-to-end metrics for one
	// variant.
	headline func(e *env, ref []*sample) []metric
	// probes lists the planning inputs the traced run times layer by
	// layer, given one variant's first samples.
	probes func(e *env, ref []*sample) []planProbe
}

func workloads() []workloadDef {
	return []workloadDef{sweepDef(), fleetDef(), liveDef(), failoverDef()}
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fleetWorkers is the fleet's worker count: two, or fewer on a host
// with fewer cores.
func fleetWorkers() int { return min(2, runtime.NumCPU()) }

func round1(v float64) float64 { return math.Round(v*10) / 10 }

// summarize runs metrics.Summarize over records inside a span and
// checks it against the summary the serving run computed itself.
func summarize(t *tracer, parent, iter int, s *sample, recs []workload.Request, slo time.Duration, want metrics.Summary) error {
	var sum metrics.Summary
	s.summarize += s.call(t, "metrics.Summarize", parent, iter, func() {
		sum = metrics.Summarize(recs, slo, des.Time(warmup))
	})
	if sum != want {
		return fmt.Errorf("summary: recomputed %+v, run reported %+v", sum, want)
	}
	s.addSummary(sum)
	return nil
}

// ---- sweep ----

// sloLevel is the attainment a rate must reach to count toward slo_rps.
const sloLevel = 0.9

// finalWindow is the last arrival window that must also meet sloLevel.
const finalWindow = 30 * time.Second

// meetsSLO applies the slo_rps rule to one rate point: attainment of at
// least sloLevel over the run and within the final arrival window, so a
// rate whose backlog is still growing does not count.
func meetsSLO(att float64, wins []metrics.Window, arrivals time.Duration) bool {
	if att < sloLevel {
		return false
	}
	for _, w := range wins {
		if w.Start == arrivals-finalWindow {
			return w.N > 0 && w.Attainment >= sloLevel
		}
	}
	return false
}

// sloRates sums, per system, the highest ladder rate that met the SLO
// rule in each cell.
func sloRates(ref []*sample) map[rag.Kind]float64 {
	best := map[[2]string]float64{}
	for _, s := range ref {
		k := [2]string{s.cell, string(s.kind)}
		if s.sloOK && s.rate > best[k] {
			best[k] = s.rate
		}
	}
	sums := map[rag.Kind]float64{}
	for k, r := range best {
		sums[rag.Kind(k[1])] += r
	}
	return sums
}

func sweepDef() workloadDef {
	return workloadDef{
		name:         "sweep",
		variants:     2,
		why:          "the paper's Fig-11 grid: every point re-plans before a short serve, so Algorithm 1, hit-rate estimation and profiling dominate",
		corpora:      []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K},
		serveWorkers: 1,
		fullPass:     true,
		iterations: func(e *env) ([]iteration, error) {
			type cell struct {
				spec  dataset.Spec
				dep   deployment
				rates []float64
			}
			var cells []cell
			for _, spec := range e.sc.sweepSpecs {
				for _, dep := range e.sc.sweepDeps {
					mu, err := rag.BareCapacity(dep.node, dep.model, workload.DefaultShape())
					if err != nil {
						return nil, fmt.Errorf("capacity of %s: %w", dep.model.Name, err)
					}
					// Warm the memoized generation SLO so no timed
					// iteration pays the one-off measurement.
					if _, err := rag.GenSLO(dep.node, dep.model, workload.DefaultShape()); err != nil {
						return nil, fmt.Errorf("generation SLO of %s: %w", dep.model.Name, err)
					}
					c := cell{spec: spec, dep: dep}
					for _, f := range e.sc.ladder {
						c.rates = append(c.rates, round1(mu*f))
					}
					cells = append(cells, c)
				}
			}
			// Every run of five consecutive iterations holds one point of
			// each system, so a partial pass keeps the full pass's mix.
			var its []iteration
			for ri := range e.sc.ladder {
				for _, c := range cells {
					for _, kind := range rag.AllKinds() {
						opts := rag.Options{
							Node: c.dep.node, Model: c.dep.model, W: e.corpus(c.spec), Kind: kind,
							Rate: c.rates[ri], Seed: e.seed,
							Duration: e.sc.sweepArrivals, Warmup: warmup, Drain: drain,
						}
						cellName := c.spec.Name + "/" + c.dep.model.Name
						its = append(its, iteration{
							key: fmt.Sprintf("%s/%s/%.1f", cellName, kind, opts.Rate),
							run: func(t *tracer, parent, iter int) (*sample, error) {
								return sweepPoint(t, parent, iter, cellName, opts)
							},
						})
					}
				}
			}
			return its, nil
		},
		headline: func(e *env, ref []*sample) []metric {
			sums := sloRates(ref)
			vl := sums[rag.VLiteRAG]
			var best float64
			bestKind := rag.Kind("none")
			for _, k := range rag.AllKinds() {
				if k != rag.VLiteRAG && sums[k] > best {
					best, bestKind = sums[k], k
				}
			}
			return []metric{
				{name: "slo_rps", unit: "req/s", value: vl,
					note: fmt.Sprintf("vLiteRAG, summed over %d cells", len(e.sc.sweepSpecs)*len(e.sc.sweepDeps))},
				{name: "slo_gain", unit: "ratio", value: share(vl, best),
					note: fmt.Sprintf("over %s at %.1f req/s summed", bestKind, best)},
			}
		},
		probes: func(e *env, ref []*sample) []planProbe {
			var out []planProbe
			for _, spec := range e.sc.sweepSpecs {
				for _, dep := range e.sc.sweepDeps {
					p := planProbe{
						key: spec.Name + "/" + dep.model.Name, w: e.corpus(spec), dep: dep,
						sloSearch: spec.SLOSearch, wantRho: math.NaN(), wantHedra: math.NaN(),
					}
					for _, s := range ref {
						if s.cell != p.key {
							continue
						}
						switch s.kind {
						case rag.VLiteRAG:
							p.wantRho = s.rho
						case rag.HedraRAG:
							p.wantHedra = s.rho
						}
					}
					out = append(out, p)
				}
			}
			return out
		},
	}
}

func sweepPoint(t *tracer, parent, iter int, cell string, opts rag.Options) (*sample, error) {
	s := &sample{cell: cell, kind: opts.Kind, rate: opts.Rate, pooled: opts.Kind == rag.VLiteRAG}
	var res *rag.Result
	var err error
	s.runWall = s.call(t, "rag.Run", parent, iter, func() { res, err = rag.Run(opts) })
	if err != nil {
		return nil, err
	}
	s.serveWall, s.allocs, s.bytes = res.ServeWall, res.ServeAllocs, res.ServeBytes
	s.rho, s.avgBatch = res.Rho, res.AvgBatch
	recs := res.Requests
	if err := checkRecords(recs, res.Generated, 0); err != nil {
		return nil, err
	}
	if err := summarize(t, parent, iter, s, recs, res.SLOTotal, res.Summary); err != nil {
		return nil, err
	}
	var wins []metrics.Window
	s.call(t, "metrics.Timeline", parent, iter, func() { wins = metrics.Timeline(recs, res.SLOTotal, finalWindow) })
	s.sloOK = meetsSLO(res.Summary.Attainment, wins, opts.Duration)
	s.addRecords(recs, des.Time(warmup))
	s.seal(recs)
	return s, nil
}

// ---- fleet ----

func fleetOptions(e *env, workers int) rag.MultiTenantOptions {
	const replicas = 4
	dep := qwen()
	gold, silver := e.corpus(dataset.Orcas1K), e.corpus(dataset.WikiAll)
	return rag.MultiTenantOptions{
		Node: dep.node, Model: dep.model,
		Tenants: []rag.TenantConfig{
			{Name: "gold", Tier: tenant.Gold, W: gold, Rate: 9 * replicas,
				SLOSearch: 350 * time.Millisecond},
			{Name: "silver", Tier: tenant.Silver, W: silver, Rate: 3 * replicas,
				SLOSearch: 500 * time.Millisecond},
			{Name: "bronze", Tier: tenant.Bronze, W: gold, Rate: 2.5 * replicas,
				SLOSearch:    300 * time.Millisecond,
				RateSchedule: workload.Bursts(2.5*replicas, 45*replicas, 60*time.Second, 15*time.Second)},
		},
		Duration: e.sc.fleetDur, Warmup: warmup, Drain: drain, Seed: e.seed,
		Replicas: replicas, Workers: workers,
		Overload:  &rag.OverloadOptions{Brownout: true},
		Precision: &rag.PrecisionOptions{},
	}
}

func fleetIteration(e *env, workers int) iteration {
	return iteration{
		key: fmt.Sprintf("fleet/w%d", workers),
		run: func(t *tracer, parent, iter int) (*sample, error) {
			opts := fleetOptions(e, workers)
			s := &sample{pooled: true}
			var res *rag.MultiTenantResult
			var err error
			s.runWall = s.call(t, "rag.RunMultiTenant", parent, iter, func() { res, err = rag.RunMultiTenant(opts) })
			if err != nil {
				return nil, err
			}
			s.serveWall, s.allocs, s.bytes = res.ServeWall, res.ServeAllocs, res.ServeBytes
			s.avgBatch = res.AvgBatch
			recs := res.Requests
			if err := checkRecords(recs, res.Generated, res.Overload.RejectedTotal); err != nil {
				return nil, err
			}
			byTenant := make([][]workload.Request, len(res.Tenants))
			for _, r := range recs {
				byTenant[r.Tenant] = append(byTenant[r.Tenant], r)
			}
			slos := make([]time.Duration, len(res.Tenants))
			peak := 0
			for i, tr := range res.Tenants {
				slos[i] = tr.SLOTotal
				s.rho += tr.Alloc.Rho / float64(len(res.Tenants))
				peak = max(peak, tr.PeakQueue)
				if err := summarize(t, parent, iter, s, byTenant[i], tr.SLOTotal, tr.Summary); err != nil {
					return nil, fmt.Errorf("tenant %s: %w", tr.Name, err)
				}
			}
			s.call(t, "metrics.TenantGoodput", parent, iter, func() {
				s.goodput = metrics.TenantGoodput(recs, slos, des.Time(warmup), des.Time(opts.Duration))
			})
			s.addRecords(recs, des.Time(warmup))
			ov := res.Overload
			s.extra = []metric{
				{name: "serve.reject_share", unit: "share", value: share(float64(ov.RejectedTotal), float64(res.Generated))},
				{name: "serve.peak_queue", unit: "req", value: float64(peak)},
				{name: "brownout.max_level", unit: "level", value: float64(ov.MaxLevel)},
				{name: "brownout.time_share", unit: "share", value: ov.BrownoutShare},
				{name: "brownout.mean_shed", unit: "share", value: ov.MeanShed},
				{name: "tenant.gold_attainment", unit: "share", value: res.Tenants[0].Summary.Attainment},
				{name: "tenant.bronze_attainment", unit: "share", value: res.Tenants[2].Summary.Attainment},
				{name: "tenant.fairness", unit: "jain", value: res.Fairness},
				{name: "retrieval.recall_gain_pts", unit: "pts", value: 100 * res.RecallGain},
			}
			s.seal(recs)
			return s, nil
		},
	}
}

func fleetDef() workloadDef {
	return workloadDef{
		name:         "fleet",
		variants:     3,
		why:          "three SLO tiers with bursts on 4 sharded replicas: serving loop, router, FairScheduler, brownout and multi-tenant engine dominate; plans once",
		corpora:      []dataset.Spec{dataset.Orcas1K, dataset.WikiAll},
		serveWorkers: fleetWorkers(),
		iterations: func(e *env) ([]iteration, error) {
			return []iteration{fleetIteration(e, fleetWorkers())}, nil
		},
		oneWorker: func(e *env) iteration { return fleetIteration(e, 1) },
		headline:  goodputHeadline,
		probes: func(e *env, _ []*sample) []planProbe {
			return []planProbe{{key: "gold", w: e.corpus(dataset.Orcas1K), dep: qwen(),
				sloSearch: 350 * time.Millisecond, wantRho: math.NaN(), wantHedra: math.NaN()}}
		},
	}
}

// goodputHeadline reports the single-run workloads' goodput.
func goodputHeadline(_ *env, ref []*sample) []metric {
	return []metric{{name: "goodput_rps", unit: "req/s", value: ref[0].goodput,
		note: "SLO-meeting requests per virtual second"}}
}

// ---- live ----

const liveSLOSearch = 150 * time.Millisecond

func liveDef() workloadDef {
	return workloadDef{
		name:         "live",
		variants:     5,
		why:          "streaming inserts and deletes beside diurnal reads, compaction answering a drift: exercises ingest, update and adapt on the live overlay",
		corpora:      []dataset.Spec{dataset.Orcas2K},
		serveWorkers: 1,
		iterations: func(e *env) ([]iteration, error) {
			return []iteration{{key: "live", run: func(t *tracer, parent, iter int) (*sample, error) {
				return liveRun(e, t, parent, iter)
			}}}, nil
		},
		headline: func(e *env, ref []*sample) []metric {
			out := goodputHeadline(e, ref)
			for _, m := range ref[0].extra {
				if m.name == "fresh_attainment" {
					out = append(out, m)
				}
			}
			return out
		},
		probes: func(e *env, ref []*sample) []planProbe {
			return []planProbe{{key: "live", w: e.corpus(dataset.Orcas2K), dep: qwen(),
				sloSearch: liveSLOSearch, wantRho: ref[0].rho, wantHedra: math.NaN()}}
		},
	}
}

func liveRun(e *env, t *tracer, parent, iter int) (*sample, error) {
	dep := qwen()
	w := e.corpus(dataset.Orcas2K)
	const rate = 20.0
	dur := e.sc.liveDur
	freshSLO := 500 * time.Millisecond
	opts := rag.LiveOptions{
		Options: rag.Options{
			Node: dep.node, Model: dep.model, W: w, Kind: rag.VLiteRAG,
			Rate: rate, RateSchedule: workload.Diurnal(rate, 0.4*rate, dur),
			Seed: e.seed, Duration: dur, Warmup: warmup, Drain: drain,
			SLOSearch: liveSLOSearch,
			Drift:     []dataset.DriftEvent{{At: dur / 4, Rotate: w.DefaultDriftRotation()}},
		},
		Ingest: rag.IngestOptions{
			InsertRate: 8, DeleteRate: 2, ReencodeEvery: 12 * time.Second,
			FreshnessSLO: freshSLO, Compaction: true, EscalateResidual: 3,
		},
	}
	s := &sample{pooled: true}
	var res *rag.LiveResult
	var err error
	s.runWall = s.call(t, "rag.RunLive", parent, iter, func() { res, err = rag.RunLive(opts) })
	if err != nil {
		return nil, err
	}
	s.serveWall, s.allocs, s.bytes = res.ServeWall, res.ServeAllocs, res.ServeBytes
	s.rho, s.avgBatch = res.Rho, res.AvgBatch
	recs := res.Requests
	if err := checkRecords(recs, res.Generated, 0); err != nil {
		return nil, err
	}
	if err := summarize(t, parent, iter, s, recs, res.SLOTotal, res.Summary); err != nil {
		return nil, err
	}
	var fresh metrics.Freshness
	s.call(t, "metrics.SummarizeFreshness", parent, iter, func() {
		fresh = metrics.SummarizeFreshness(res.Mutations, freshSLO, des.Time(warmup))
	})
	if fresh != res.Freshness {
		return nil, fmt.Errorf("freshness: recomputed %+v, run reported %+v", fresh, res.Freshness)
	}
	s.call(t, "metrics.Goodput", parent, iter, func() {
		s.goodput = metrics.Goodput(recs, res.SLOTotal, des.Time(warmup), des.Time(dur))
	})
	s.addRecords(recs, des.Time(warmup))
	rebuilds := 0
	for _, rb := range res.Rebuilds {
		if !rb.Compaction && rb.Aborted == "" {
			rebuilds++
		}
	}
	s.extra = []metric{
		{name: "fresh_attainment", unit: "share", value: fresh.Attainment,
			note: fmt.Sprintf("%d inserts within %v", fresh.Inserts, freshSLO)},
		{name: "ingest.mutations", unit: "count", value: float64(len(res.Mutations))},
		{name: "ingest.reencodes", unit: "count", value: float64(res.Reencodes)},
		{name: "ingest.tts_p50_ms", unit: "ms", value: ms(fresh.TTS.P50)},
		{name: "ingest.tts_p99_ms", unit: "ms", value: ms(fresh.TTS.P99)},
		{name: "adapt.compactions", unit: "count", value: float64(res.Compactions)},
		{name: "adapt.rebuilds", unit: "count", value: float64(rebuilds)},
	}
	s.seal(recs)
	return s, nil
}

// ---- failover ----

const failoverReplicas = 8

func failoverDef() workloadDef {
	return workloadDef{
		name:         "failover",
		variants:     5,
		why:          "a seeded storm of 12 faults on 8 replicas: the fault layer and the resilient router on the largest single-timeline loop",
		corpora:      []dataset.Spec{dataset.Orcas1K},
		serveWorkers: 1,
		iterations: func(e *env) ([]iteration, error) {
			dep := qwen()
			mu, err := rag.BareCapacity(dep.node, dep.model, workload.DefaultShape())
			if err != nil {
				return nil, fmt.Errorf("capacity of %s: %w", dep.model.Name, err)
			}
			if _, err := rag.GenSLO(dep.node, dep.model, workload.DefaultShape()); err != nil {
				return nil, fmt.Errorf("generation SLO of %s: %w", dep.model.Name, err)
			}
			rate := round1(mu*0.5) * failoverReplicas
			return []iteration{{key: "failover", run: func(t *tracer, parent, iter int) (*sample, error) {
				return failoverRun(e, rate, t, parent, iter)
			}}}, nil
		},
		headline: goodputHeadline,
		probes: func(e *env, ref []*sample) []planProbe {
			return []planProbe{{key: "failover", w: e.corpus(dataset.Orcas1K), dep: qwen(),
				sloSearch: dataset.Orcas1K.SLOSearch, wantRho: ref[0].rho, wantHedra: math.NaN()}}
		},
	}
}

func failoverRun(e *env, rate float64, t *tracer, parent, iter int) (*sample, error) {
	dep := qwen()
	dur := e.sc.failoverDur
	opts := rag.Options{
		Node: dep.node, Model: dep.model, W: e.corpus(dataset.Orcas1K), Kind: rag.VLiteRAG,
		Rate: rate, Seed: e.seed, Duration: dur, Warmup: warmup, Drain: drain,
		Faults: fault.Random(e.seed, failoverReplicas, dur, e.sc.faults),
		Resilience: &serve.ResilienceConfig{
			Timeout: 30 * time.Second, MaxRetries: 2, HedgeDelay: 15 * time.Second, Degrade: true,
		},
	}
	s := &sample{pooled: true}
	var res *rag.ClusterResult
	var err error
	s.runWall = s.call(t, "rag.RunCluster", parent, iter, func() {
		res, err = rag.RunCluster(opts, failoverReplicas, serve.LeastLoaded)
	})
	if err != nil {
		return nil, err
	}
	s.serveWall, s.allocs, s.bytes = res.ServeWall, res.ServeAllocs, res.ServeBytes
	s.rho, s.avgBatch = res.Rho, res.AvgBatch
	recs := res.Requests
	if err := checkRecords(recs, res.Generated, 0); err != nil {
		return nil, err
	}
	if err := summarize(t, parent, iter, s, recs, res.SLOTotal, res.Summary); err != nil {
		return nil, err
	}
	s.call(t, "metrics.Goodput", parent, iter, func() {
		s.goodput = metrics.Goodput(recs, res.SLOTotal, des.Time(warmup), des.Time(dur))
	})
	rr := res.Resilience
	if s.goodput != rr.Goodput {
		return nil, fmt.Errorf("goodput: recomputed %v, run reported %v", s.goodput, rr.Goodput)
	}
	s.addRecords(recs, des.Time(warmup))
	recover := 0.0
	for _, d := range rr.Recoveries {
		recover = max(recover, ms(d))
	}
	st := rr.Stats
	s.extra = []metric{
		{name: "serve.retried", unit: "count", value: float64(st.Retried)},
		{name: "serve.hedged", unit: "count", value: float64(st.Hedged)},
		{name: "serve.hedge_win_share", unit: "share", value: share(float64(st.HedgeWins), float64(st.Hedged))},
		{name: "serve.timed_out", unit: "count", value: float64(st.TimedOut)},
		{name: "serve.failed", unit: "count", value: float64(st.Failed)},
		{name: "serve.recover_ms", unit: "ms", value: recover,
			note: fmt.Sprintf("longest of %d crash recoveries", len(rr.Recoveries))},
	}
	s.seal(recs)
	return s, nil
}
