package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/ingest"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/update"
	"vectorliterag/internal/workload"
)

// nodeSpec is one single-node run: the serving options plus the
// attachments Run, RunAdaptive and RunLive switch on. Each attachment
// is wired only when configured, so a spec with none of them composes
// the plain pipeline event for event.
type nodeSpec struct {
	Options
	// adapt attaches the adapt controller: drift triggers re-profile,
	// re-run Algorithm 1 and hot-swap the plan (§IV-B3). With ingest
	// set, the ingester is also its compactor.
	adapt   bool
	monitor update.MonitorConfig
	// ingest, when non-nil, runs the streaming-ingest subsystem on the
	// serving timeline and prices every scan through its live overlay.
	ingest *IngestOptions
}

// nodeRun is what the composer hands back to the presets: the common
// result plus the attachments' handles, from which each preset fills
// its own report.
type nodeRun struct {
	Result
	opts     Options           // the run's options with defaults filled
	ctrl     *adapt.Controller // nil without adapt
	expected float64           // the controller's initial hit-rate anchor
	ing      *ingest.Ingester  // nil without ingest
	store    *ingest.Store
}

// validate is the single place the single-node combination rules
// live; each rejection states why the combination cannot run.
func (s *nodeSpec) validate() error {
	if s.resilient() {
		return fmt.Errorf("rag: fault injection and resilience need replicas to fail over to — use RunCluster")
	}
	if s.adapt && s.Kind != VLiteRAG {
		return fmt.Errorf("rag: adaptive serving and compaction hot-swap the split plan, which only the vLiteRAG runtime supports; got %s", s.Kind)
	}
	if s.adapt && s.Overload != nil {
		return fmt.Errorf("rag: overload control and the adapt controller would fight over the same latency signal; run one or the other")
	}
	return nil
}

// runNode is the single-node composer behind Run, RunAdaptive and
// RunLive: it makes the system's resource decision, composes the
// serving pipeline (admission → [bounded scheduler] → retrieval →
// generation → collector) with the configured attachments, and drives
// the arrivals through it in virtual time.
func runNode(spec nodeSpec) (*nodeRun, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	sloTotal, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	opts := spec.Options
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
	run := &nodeRun{opts: opts}
	pool := &workload.Pool{}
	coll := serve.NewCollector()
	var live retrieval.LiveCost
	var aux []serve.Aux
	if spec.ingest != nil {
		run.store = ingest.NewStore(opts.W)
		run.ing = ingest.New(ingest.Config{
			Sim:           &sim,
			Store:         run.store,
			Node:          opts.Node,
			ReencodeEvery: spec.ingest.ReencodeEvery,
			Horizon:       des.Time(opts.Duration + opts.Drain),
		})
		live = run.store
		aux = mutationSources(opts, spec.ingest, run.ing)
	}
	mu0 := d.mu0
	if spec.adapt {
		if mu0 == 0 { // prebuilt-plan path skips the capacity measurement
			if mu0, err = bareCapacity(opts.Node, opts.Model, opts.Node.NumGPUs, opts.Shape); err != nil {
				return nil, err
			}
		}
		if run.ctrl, run.expected, err = newController(&sim, &spec, prof, cpuModel, d.rho, mu0, sloTotal); err != nil {
			return nil, err
		}
	}
	retr, gen := stageBuilders(&sim, opts, d, cpuModel, live)

	// Overload control, when configured, meters the pipeline through a
	// single-class FairScheduler: bounded admission ahead of retrieval,
	// the brownout controller stamping dispatches and observing
	// completions.
	var rig *overloadRig
	var sched *serve.FairScheduler
	if opts.Overload != nil {
		sched, err = serve.NewFairScheduler([]serve.TenantClass{{Weight: 1, Priority: 0}}, 32)
		if err != nil {
			return nil, err
		}
		budgets, bias := opts.overloadBudget()
		rig, err = rigOverload(&sim, opts.Overload, sched, budgets, bias,
			rejectSink(coll.Abandon, pool.Release))
		if err != nil {
			return nil, err
		}
	}
	// Terminal sink: finalize the collector record, let the attached
	// controllers observe the completed request, then recycle it — the
	// pool release must come last.
	var observers []serve.Sink
	if run.ctrl != nil {
		observers = append(observers, run.ctrl.Observe)
	}
	terminal := teeObserve(rig, coll.Done, pool.Release, observers...)
	builders := []serve.Builder{serve.Admit(coll)}
	if sched != nil {
		builders = append(builders, serve.Scheduled(sched))
	}
	builders = append(builders, retr, gen)
	pipe, err := serve.Compose(&sim, terminal, builders...)
	if err != nil {
		return nil, err
	}
	if sched != nil {
		// Meter the TTFT section as the multi-tenant path does: the slot
		// frees at first token, completion re-installs the terminal sink.
		pipe.Generation().Cluster.SetCallbacks(sched.Release, terminal)
	}
	if run.ctrl != nil {
		hs, ok := pipe.Retrieval().Engine.(retrieval.HotSwapper)
		if !ok {
			return nil, fmt.Errorf("rag: engine %s is not hot-swappable", pipe.Retrieval().Engine.Name())
		}
		run.ctrl.Bind(hs)
		if run.ing != nil {
			run.ctrl.BindCompactor(run.ing)
		}
	}

	defer installDrift(&sim, opts)()
	arr := arrivalsFor(opts)
	arr.SetPool(pool)
	sec := beginServeSection()
	pipe.RunAux(arr, opts.Duration, opts.Drain, aux...)
	wall, allocs, bytes := sec.end()

	run.Result = Result{
		Kind: opts.Kind, Rate: opts.Rate, SLOTotal: sloTotal,
		ServeWall: wall, ServeAllocs: allocs, ServeBytes: bytes,
		Rho: d.rho, PlanBytes: d.planBytes, Mu0: mu0, Partition: d.partition,
		Requests:  coll.Requests(),
		Generated: coll.Admitted(),
		AvgBatch:  pipe.Retrieval().AvgBatch(),
		LLMGPUs:   pipe.Generation().GPUs(opts.Model.TP),
		Summary:   coll.Summarize(sloTotal, des.Time(opts.Warmup)),
	}
	if d.plan != nil && d.plan.Prec != nil {
		run.SQClusters = d.plan.Prec.SQClusters
		run.NVMeClusters = d.plan.Prec.NVMeClusters
		if rr, ok := pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
			run.RecallGain = rr.RecallGain()
		}
	}
	if rig != nil {
		run.Overload = rig.report(opts.Overload, 1,
			des.Time(opts.Duration+opts.Drain), opts.Duration+opts.Drain)
	}
	return run, nil
}

// newController builds the adapt controller for a run. It fits the
// hit-rate estimator and the CPU latency model from the run's profile
// once; the controller re-uses them across cycles and re-measures only
// the access profile, because drift moves the query distribution, not
// the machine. It returns the controller and the initial plan's
// model-expected mean hit rate (the monitor's first anchor).
func newController(sim *des.Sim, spec *nodeSpec, prof *profiler.AccessProfile, cpuModel costmodel.SearchModel,
	rho, mu0 float64, sloTotal time.Duration) (*adapt.Controller, float64, error) {
	est, err := hitrate.NewEstimator(prof)
	if err != nil {
		return nil, 0, err
	}
	perf, err := perfmodel.Fit(profiler.ProfileLatency(cpuModel, profiler.DefaultBatches()))
	if err != nil {
		return nil, 0, err
	}
	cfg := adapt.Config{
		Monitor:        monitorDefaults(spec.monitor, &spec.Options),
		ProfileQueries: spec.ProfileQueries,
		Epsilon:        spec.Epsilon,
	}
	if spec.ingest != nil {
		cfg.EscalateSkew = spec.ingest.EscalateSkew
		cfg.EscalateResidual = spec.ingest.EscalateResidual
	}
	expected := est.MeanHitRate(rho)
	ctrl, err := adapt.NewController(cfg, adapt.Inputs{
		Sim:       sim,
		W:         spec.W,
		Node:      spec.Node,
		SLOTotal:  sloTotal,
		SLOSearch: spec.SLOSearch,
		Perf:      perf,
		Mu0:       mu0,
		MemKV:     nodeKVBytes(spec.Node, spec.Model),
		Expected:  expected,
		Seed:      spec.Seed + 13,
	})
	if err != nil {
		return nil, 0, err
	}
	return ctrl, expected, nil
}

// monitorDefaults fills each unset monitor field independently, so a
// caller pinning only the window (or only a threshold) still gets
// working defaults for the rest. A zero window derives roughly ten
// seconds of traffic (min 100 requests) — the paper's "every few
// thousand requests" scaled to this substrate's run lengths. With a
// schedule driving arrivals, Rate is only a label (and may be far off
// the real traffic), so the schedule's bound sizes the window —
// conservatively large, which also keeps the one-window post-swap
// cooldown meaningful.
func monitorDefaults(mon update.MonitorConfig, opts *Options) update.MonitorConfig {
	def := update.DefaultMonitorConfig()
	if mon.WindowRequests == 0 {
		rate := opts.Rate
		if opts.RateSchedule != nil {
			rate = opts.RateSchedule.MaxRate()
		}
		if mon.WindowRequests = int(rate * 10); mon.WindowRequests < 100 {
			mon.WindowRequests = 100
		}
	}
	if mon.SLOThreshold == 0 {
		mon.SLOThreshold = def.SLOThreshold
	}
	if mon.HitRateDivergence == 0 {
		mon.HitRateDivergence = def.HitRateDivergence
	}
	return mon
}

// mutationSources builds the run's insert/delete streams, submitting
// into the ingester. Their seeds split off the run seed on their own
// stream IDs, so the request stream (Seed+7) and the profiling sample
// (Seed+1) are untouched — the frozen half of a frozen-vs-live A/B
// replays identically.
func mutationSources(opts Options, io *IngestOptions, ing *ingest.Ingester) []serve.Aux {
	var aux []serve.Aux
	add := func(kind workload.MutationKind, rate float64, sched workload.Schedule, stream uint64) {
		if rate > 0 || sched != nil {
			g := workload.NewMutationGen(opts.W, kind, rate, sched, 0, rng.Stream(opts.Seed, stream))
			aux = append(aux, serve.AuxFunc(func(s *des.Sim, until des.Time) { g.Start(s, until, ing.Submit) }))
		}
	}
	add(workload.MutInsert, io.InsertRate, io.InsertSchedule, 21)
	add(workload.MutDelete, io.DeleteRate, io.DeleteSchedule, 22)
	return aux
}
