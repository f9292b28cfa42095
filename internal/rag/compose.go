package rag

import (
	"fmt"
	"runtime"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// decision is a system's resource choice — coverage, split plan, LLM
// placement — computed once per run and shared by every replica that
// instantiates it. It is the output of the offline half of each
// baseline (for vLiteRAG, Algorithm 1).
type decision struct {
	rho       float64
	plan      *splitter.Plan // nil for CPU-only
	planBytes int64
	partition *partition.Result
	mu0       float64
	nDed      int // DED-GPU: GPUs dedicated to retrieval
}

// decide makes the per-kind resource decision from the access profile.
func decide(opts Options, prof *profiler.AccessProfile, cpuModel costmodel.SearchModel) (*decision, error) {
	switch opts.Kind {
	case CPUOnly:
		return &decision{}, nil

	case AllGPU:
		plan, err := splitter.Build(prof, 1.0, opts.Node.NumGPUs)
		if err != nil {
			return nil, err
		}
		return &decision{rho: 1, plan: plan, planBytes: plan.TotalBytes()}, nil

	case DedGPU:
		perGPU := opts.Node.GPU.UsableMem()
		nDed := int((opts.W.TotalIndexBytes() + perGPU - 1) / perGPU)
		if nDed < 1 {
			nDed = 1
		}
		if nDed >= opts.Node.NumGPUs {
			return nil, fmt.Errorf("rag: index needs %d dedicated GPUs, node has %d", nDed, opts.Node.NumGPUs)
		}
		if opts.Node.NumGPUs-nDed < opts.Model.TP {
			return nil, fmt.Errorf("rag: DED-GPU leaves %d GPUs, %s needs TP=%d", opts.Node.NumGPUs-nDed, opts.Model, opts.Model.TP)
		}
		plan, err := splitter.Build(prof, 1.0, nDed)
		if err != nil {
			return nil, err
		}
		return &decision{rho: 1, plan: plan, planBytes: plan.TotalBytes(), nDed: nDed}, nil

	case VLiteRAG, HedraRAG:
		if opts.Plan != nil && opts.Kind == VLiteRAG {
			// Serve an existing plan as-is ("build once, serve many").
			return &decision{rho: opts.Plan.Coverage, plan: opts.Plan, planBytes: opts.Plan.TotalBytes()}, nil
		}
		est, err := hitrate.NewEstimator(prof)
		if err != nil {
			return nil, err
		}
		perf, err := perfmodel.Fit(profiler.ProfileLatency(cpuModel, profiler.DefaultBatches()))
		if err != nil {
			return nil, err
		}
		mu0, err := bareCapacity(opts.Node, opts.Model, opts.Node.NumGPUs, opts.Shape)
		if err != nil {
			return nil, err
		}
		memKV := nodeKVBytes(opts.Node, opts.Model)
		d := &decision{mu0: mu0}
		if opts.Kind == VLiteRAG {
			part, err := partition.LatencyBounded(partition.Inputs{
				SLOSearch:    opts.SLOSearch,
				Epsilon:      opts.Epsilon,
				Perf:         perf,
				Est:          est,
				MemKV:        memKV,
				Mu0:          mu0,
				IndexBytesAt: splitter.IndexBytesAt(prof),
			})
			if err != nil {
				return nil, err
			}
			d.partition = &part
			d.rho = part.Rho
		} else if opts.HedraCoverageOverride > 0 {
			d.rho = opts.HedraCoverageOverride
		} else {
			part, err := partition.Hedra(partition.HedraInputs{
				Perf: perf, Est: est,
				MemKV: memKV, Mu0: mu0,
				IndexBytesAt: splitter.IndexBytesAt(prof),
				BatchCap:     opts.MaxBatch,
			})
			if err != nil {
				return nil, err
			}
			d.partition = &part
			d.rho = part.Rho
		}
		plan, err := splitter.Build(prof, d.rho, opts.Node.NumGPUs)
		if err != nil {
			return nil, err
		}
		if opts.Kind == VLiteRAG && opts.Precision != nil {
			if err := attachPrecision(opts, prof, plan, memKV); err != nil {
				return nil, err
			}
		}
		d.plan = plan
		d.planBytes = plan.TotalBytes()
		return d, nil

	default:
		return nil, fmt.Errorf("rag: unknown kind %q", opts.Kind)
	}
}

// attachPrecision runs the (tier, codec) refinement on a freshly built
// vLiteRAG plan: per-cluster SQ8 recall deltas from the profile, the
// upgrade budget as a fraction of the HBM the placement loop left to
// the KV pool, and the greedy assignment of partition.AssignPrecision.
// The refinement's extra bytes fold into the plan's shard accounting,
// so the KV pool downstream pays for them.
func attachPrecision(opts Options, prof *profiler.AccessProfile, plan *splitter.Plan, memKV int64) error {
	deltas, err := profiler.SQRecallDeltas(prof)
	if err != nil {
		return err
	}
	leftover := memKV - plan.TotalBytes()
	if leftover < 0 {
		leftover = 0
	}
	prec, err := partition.AssignPrecision(partition.PrecisionInputs{
		Prof:          prof,
		Plan:          plan,
		RecallDeltas:  deltas,
		SQRatio:       float64(opts.W.Spec.Dim) / float64(opts.W.Spec.CodeBytes),
		SQBudgetBytes: int64(opts.Precision.SQBudgetFrac * float64(leftover)),
		NVMeColdShare: opts.Precision.NVMeColdShare,
	})
	if err != nil {
		return err
	}
	plan.AttachPrecision(prec)
	return nil
}

// stageBuilders instantiates one replica of the decision: fresh GPU
// states with the shared plan applied, the retrieval-engine stage, and
// the LLM generation stage. Compose builds generation first, so the
// engine's Forward hook points at a live cluster — the same
// construction order the pre-pipeline monolith used. live, when
// non-nil, overlays streaming-ingest scan costs on the engine's cost
// tables (nil on every frozen-corpus path).
func stageBuilders(sim *des.Sim, opts Options, d *decision, cpuModel costmodel.SearchModel, live retrieval.LiveCost) (retr, gen serve.Builder) {
	states := gpu.NewStates(opts.Node)
	gm := costmodel.GPUScanModel{GPU: opts.Node.GPU}
	llmStates := states

	var makeEngine func(cfg retrieval.Config) (retrieval.Engine, error)
	switch opts.Kind {
	case CPUOnly:
		makeEngine = func(cfg retrieval.Config) (retrieval.Engine, error) { return retrieval.NewCPUOnly(cfg), nil }
	case AllGPU:
		applyShards(states, d.plan)
		makeEngine = func(cfg retrieval.Config) (retrieval.Engine, error) {
			return retrieval.NewAllGPU(cfg, d.plan, states, gm), nil
		}
	case DedGPU:
		dedStates := states[opts.Node.NumGPUs-d.nDed:]
		llmStates = states[:opts.Node.NumGPUs-d.nDed]
		applyShards(dedStates, d.plan)
		makeEngine = func(cfg retrieval.Config) (retrieval.Engine, error) {
			return retrieval.NewDedGPU(cfg, d.plan, dedStates, gm), nil
		}
	case VLiteRAG:
		applyShards(states, d.plan)
		makeEngine = func(cfg retrieval.Config) (retrieval.Engine, error) {
			h, err := retrieval.NewHybrid(cfg, []retrieval.TenantSlot{
				{W: cfg.W, Plan: d.plan, CPUModel: cfg.CPUModel, Live: cfg.Live},
			}, states, gm)
			if err != nil {
				return nil, err
			}
			h.Dispatcher = !opts.DisableDispatcher
			return h, nil
		}
	case HedraRAG:
		applyShards(states, d.plan)
		makeEngine = func(cfg retrieval.Config) (retrieval.Engine, error) {
			return retrieval.NewHedra(cfg, d.plan, states, gm), nil
		}
	}

	retr = serve.RetrievalStage(func(forward serve.Sink) (retrieval.Engine, error) {
		return makeEngine(retrieval.Config{
			Sim:      sim,
			W:        opts.W,
			CPUModel: cpuModel,
			Forward:  forward,
			Live:     live,
			MaxBatch: opts.MaxBatch,
			NVMe:     opts.Node.NVMe,
		})
	})
	gen = serve.GenerationStage(func() (*llm.Cluster, error) {
		return llm.NewCluster(sim, opts.Node, opts.Model, llmStates, llm.DefaultEngineConfig())
	})
	return retr, gen
}

// profileFor runs the offline access profiling a run's decision needs.
func profileFor(opts Options) (*profiler.AccessProfile, error) {
	n := opts.ProfileQueries
	if n <= 0 {
		n = 4000
	}
	return profiler.CollectAccess(opts.W, n, opts.Seed+1)
}

// arrivalsFor returns the run's pipeline source: the constant-rate
// Poisson stream, or the inhomogeneous (thinned) stream when a rate
// schedule is set.
func arrivalsFor(opts Options) *serve.Arrivals {
	if opts.RateSchedule != nil {
		return serve.NewScheduledArrivals(opts.W, opts.RateSchedule, opts.Shape, opts.Seed+7)
	}
	return serve.NewArrivals(opts.W, opts.Rate, opts.Shape, opts.Seed+7)
}

// serveSection measures the simulation section of a run — wall clock
// and heap-allocation deltas around arrival scheduling plus the event
// loop, excluding the offline decision work. It feeds the Serve*
// fields of Result, the data the bench-serve experiment tracks across
// PRs.
type serveSection struct {
	t0 time.Time
	m0 runtime.MemStats
}

func beginServeSection() *serveSection {
	s := &serveSection{}
	// Collect the offline phase's garbage first: with the serving loop
	// itself allocation-free, no GC cycle then lands inside the section,
	// so the measurement is of the simulation, not of collecting the
	// profiler's leftovers.
	runtime.GC()
	runtime.ReadMemStats(&s.m0)
	s.t0 = time.Now()
	return s
}

func (s *serveSection) end() (wall time.Duration, allocs, bytes uint64) {
	wall = time.Since(s.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - s.m0.Mallocs, m1.TotalAlloc - s.m0.TotalAlloc
}

// installDrift schedules the drift trace's popularity rotations on the
// virtual timeline and returns a restore hook that resets the workload
// to its pre-run rotation, so one run's drift cannot leak into the
// next (static and adaptive arms replay the identical trace).
func installDrift(sim *des.Sim, opts Options) (restore func()) {
	initial := opts.W.PopularityRotation()
	for _, ev := range opts.Drift {
		ev := ev
		sim.At(des.Time(ev.At), func() { opts.W.ApplyDrift(ev) })
	}
	return func() { opts.W.SetPopularityRotation(initial) }
}

// Run executes one evaluation point: it makes the system's resource
// decision, composes the serving pipeline (admission → retrieval →
// generation → collector, with the bounded scheduler ahead of retrieval
// when Overload is set), and drives Poisson arrivals through it in
// virtual time.
func Run(opts Options) (*Result, error) {
	run, err := runNode(nodeSpec{Options: opts})
	if err != nil {
		return nil, err
	}
	return &run.Result, nil
}

// ReplicaResult reports one replica's share of a cluster run.
type ReplicaResult struct {
	Submitted int
	Summary   metrics.Summary
	AvgBatch  float64
	LLMGPUs   int
}

// ClusterResult is one multi-replica evaluation point: the aggregate
// metrics over every request plus the per-replica breakdown.
type ClusterResult struct {
	Result
	Policy     serve.Policy
	PerReplica []ReplicaResult
	// Workers and NetDelay echo the execution configuration of a sharded
	// run (zero on the single-timeline path): how many worker goroutines
	// executed the shards — a wall-clock knob only, never visible in the
	// schedule — and the modeled network transit that doubled as the
	// conservative lookahead.
	Workers  int
	NetDelay time.Duration
	// Resilience reports the failure-handling addendum of a resilient
	// run (nil on fault-free runs, which never build the resilient
	// router).
	Resilience *ResilienceReport
}

// RunCluster executes one evaluation point on N independent node
// pipelines behind a front-end router. The resource decision is made
// once (the replicas are identical nodes) and instantiated per replica
// with its own GPU states, retrieval engine, and LLM cluster; a single
// Poisson stream feeds the router, so rate is the cluster-wide arrival
// rate.
func RunCluster(opts Options, replicas int, policy serve.Policy) (*ClusterResult, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("rag: need at least one replica, got %d", replicas)
	}
	if opts.NetDelay < 0 {
		return nil, fmt.Errorf("rag: negative NetDelay %v", opts.NetDelay)
	}
	if opts.Overload != nil {
		return nil, fmt.Errorf("rag: overload control runs on single-node Run and multi-tenant serving; cluster runs degrade through the resilient front end instead")
	}
	if opts.resilient() {
		// Failure injection runs on the single shared timeline: crash
		// failover and hedging need the router and every replica on one
		// event queue, and the schedule is then trivially identical for
		// any Workers value.
		return runClusterResilient(opts, replicas, policy)
	}
	// Workers > 1 needs shards to spread over; sharding needs a positive
	// network delay for lookahead, so asking for parallelism opts into
	// the modeled network.
	if opts.NetDelay == 0 && opts.Workers > 1 {
		opts.NetDelay = DefaultNetDelay
	}
	if opts.NetDelay > 0 {
		return runClusterSharded(opts, replicas, policy)
	}
	// Resolve the policy before the expensive profiling/decision work so
	// a typo fails fast.
	policy, err := serve.ResolvePolicy(policy)
	if err != nil {
		return nil, err
	}
	sloTotal, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	prof, err := profileFor(opts)
	if err != nil {
		return nil, err
	}
	cpuModel := costmodel.NewSearchModel(opts.Node.CPU, opts.W.Spec)
	d, err := decide(opts, prof, cpuModel)
	if err != nil {
		return nil, err
	}

	var sim des.Sim
	pool := &workload.Pool{}
	coll := serve.NewCollector()
	reps := make([]*serve.Replica, replicas)
	repColls := make([]*serve.Collector, replicas)
	for i := range reps {
		rep := serve.NewReplica()
		repColl := serve.NewCollector()
		retr, gen := stageBuilders(&sim, opts, d, cpuModel, nil)
		pipe, err := serve.Compose(&sim,
			serve.Tee(coll.Done, repColl.Done, rep.Release, pool.Release),
			serve.Admit(repColl), retr, gen)
		if err != nil {
			return nil, err
		}
		rep.Bind(pipe)
		reps[i] = rep
		repColls[i] = repColl
	}
	router, err := serve.NewRouter(policy, reps)
	if err != nil {
		return nil, err
	}
	front, err := serve.Compose(&sim, router.Submit, serve.Admit(coll))
	if err != nil {
		return nil, err
	}
	defer installDrift(&sim, opts)()
	arr := arrivalsFor(opts)
	arr.SetPool(pool)
	sec := beginServeSection()
	front.Run(arr, opts.Duration, opts.Drain)
	wall, allocs, bytes := sec.end()

	res := &ClusterResult{
		Result: Result{
			Kind: opts.Kind, Rate: opts.Rate, SLOTotal: sloTotal,
			ServeWall: wall, ServeAllocs: allocs, ServeBytes: bytes,
			Rho: d.rho, PlanBytes: d.planBytes, Mu0: d.mu0, Partition: d.partition,
			Requests:  coll.Requests(),
			Generated: coll.Admitted(),
			Summary:   coll.Summarize(sloTotal, des.Time(opts.Warmup)),
		},
		Policy: policy,
	}
	var batchSum, gainSum float64
	for i, rep := range reps {
		pipe := rep.Pipeline()
		rr := ReplicaResult{
			Submitted: rep.Submitted(),
			Summary:   repColls[i].Summarize(sloTotal, des.Time(opts.Warmup)),
			AvgBatch:  pipe.Retrieval().AvgBatch(),
			LLMGPUs:   pipe.Generation().GPUs(opts.Model.TP),
		}
		res.PerReplica = append(res.PerReplica, rr)
		res.LLMGPUs += rr.LLMGPUs
		batchSum += rr.AvgBatch * float64(rr.Submitted)
		if g, ok := pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
			gainSum += g.RecallGain() * float64(rr.Submitted)
		}
	}
	if res.Generated > 0 {
		res.AvgBatch = batchSum / float64(res.Generated)
		res.RecallGain = gainSum / float64(res.Generated)
	}
	if d.plan != nil && d.plan.Prec != nil {
		res.SQClusters = d.plan.Prec.SQClusters
		res.NVMeClusters = d.plan.Prec.NVMeClusters
	}
	return res, nil
}
