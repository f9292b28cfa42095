package rag

import (
	"fmt"
	"runtime"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/fault"
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
	// DED-GPU serves the index from its own GPUs and the LLM from the
	// rest; every other system shares all of them.
	idxStates, llmStates := states, states
	if opts.Kind == DedGPU {
		idxStates, llmStates = states[opts.Node.NumGPUs-d.nDed:], states[:opts.Node.NumGPUs-d.nDed]
	}
	if d.plan != nil {
		applyShards(idxStates, d.plan)
	}
	retr = serve.RetrievalStage(func(forward serve.Sink) (retrieval.Engine, error) {
		cfg := retrieval.Config{
			Sim:      sim,
			W:        opts.W,
			CPUModel: cpuModel,
			Forward:  forward,
			Live:     live,
			MaxBatch: opts.MaxBatch,
			NVMe:     opts.Node.NVMe,
		}
		switch opts.Kind {
		case CPUOnly:
			return retrieval.NewCPUOnly(cfg), nil
		case AllGPU:
			return retrieval.NewAllGPU(cfg, d.plan, idxStates, gm), nil
		case DedGPU:
			return retrieval.NewDedGPU(cfg, d.plan, idxStates, gm), nil
		case HedraRAG:
			return retrieval.NewHedra(cfg, d.plan, idxStates, gm), nil
		}
		h, err := retrieval.NewHybrid(cfg, []retrieval.TenantSlot{
			{W: cfg.W, Plan: d.plan, CPUModel: cfg.CPUModel, Live: cfg.Live},
		}, idxStates, gm)
		if err != nil {
			return nil, err
		}
		h.Dispatcher = !opts.DisableDispatcher
		return h, nil
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
	if len(opts.Drift) == 0 {
		return func() {}
	}
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
// virtual time. It is the one-replica preset of the serving composer.
func Run(opts Options) (*Result, error) {
	c, err := runSystem(single(opts))
	if err != nil {
		return nil, err
	}
	return &c.Result, nil
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

// ResilienceReport is the failure-handling addendum of a resilient
// cluster run: what the storm did, what the router did about it, and
// what it cost.
type ResilienceReport struct {
	// Faults echoes the injected schedule (useful when it was random).
	Faults fault.Schedule
	// Stats counts the router's failure-handling actions.
	Stats serve.ResilienceStats
	// Goodput is SLO-meeting completions per second of arrival window —
	// the headline number degradation arms trade recall to protect.
	Goodput float64
	// Recoveries is, per crash episode, crash instant → completion of
	// the last request failed over off the dead replica (negative when
	// no failover completed).
	Recoveries []time.Duration
}

// String renders the report's counters compactly for logs and tables.
func (r *ResilienceReport) String() string {
	return fmt.Sprintf("goodput=%.2f/s retried=%d failedover=%d hedged=%d hedgewins=%d timedout=%d failed=%d ghosts=%d crashes=%d",
		r.Goodput, r.Stats.Retried, r.Stats.FailedOver, r.Stats.Hedged, r.Stats.HedgeWins, r.Stats.TimedOut, r.Stats.Failed, r.Stats.Ghosts, r.Stats.Crashes)
}

// RunCluster executes one evaluation point on N independent node
// pipelines behind a front-end router. The resource decision is made
// once (the replicas are identical nodes) and instantiated per replica
// with its own GPU states, retrieval engine, and LLM cluster; a single
// Poisson stream feeds the router, so rate is the cluster-wide arrival
// rate.
//
// The front end follows the options: faults or Resilience select the
// failure-aware router on one shared timeline (Workers is accepted and
// irrelevant there); a positive NetDelay selects the parallel sharded
// engine, and Workers > 1 opts into it by defaulting NetDelay; anything
// else routes on one timeline. Overload gives each replica its own
// bounded scheduler and brownout controller.
func RunCluster(opts Options, replicas int, policy serve.Policy) (*ClusterResult, error) {
	if !opts.resilient() && opts.NetDelay == 0 && opts.Workers > 1 {
		opts.NetDelay = DefaultNetDelay
	}
	c, err := runSystem(servingSpec{Options: opts, replicas: replicas, policy: policy})
	if err != nil {
		return nil, err
	}
	return &c.ClusterResult, nil
}
