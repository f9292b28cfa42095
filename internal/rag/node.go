package rag

import (
	"fmt"
	"runtime"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/brownout"
	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/ingest"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/update"
	"vectorliterag/internal/workload"
)

// servingSpec is one run of the serving composer: R replica nodes × M
// tenant slots behind one front end, with the optional single-node
// attachments. Every preset (Run, RunAdaptive, RunLive, RunCluster,
// RunMultiTenant) fills the topology and controller fields, the one
// validator checks their combination, and the offline decision then
// supplies the node recipe.
type servingSpec struct {
	Options  // run parameters; W, Rate and RateSchedule feed a single-system source
	replicas int
	policy   serve.Policy

	// tenants, when non-nil, makes the run multi-tenant: one arrival
	// source per tenant, each judged against its own SLO. sharedQueue
	// drops the per-tenant FairScheduler (the unmetered baseline).
	tenants     []TenantConfig
	sharedQueue bool

	// The single-node attachments. adapt attaches the adapt controller:
	// drift triggers re-profile, re-run Algorithm 1 and hot-swap the
	// plan (§IV-B3); with ingest set, the ingester is also its
	// compactor. ingest runs the streaming-ingest subsystem on the
	// serving timeline and prices every scan through its live overlay.
	adapt   bool
	monitor update.MonitorConfig
	ingest  *IngestOptions

	// The node recipe, filled by the offline decision: the per-replica
	// stage factory, the scheduler classes (one per source; nil leaves
	// the node unmetered), the overload budgets, the arrival sources
	// with their SLOs, and the result header.
	stages   func(sim *des.Sim, live retrieval.LiveCost) (retr, gen serve.Builder)
	classes  []serve.TenantClass
	inflight int
	budgets  []brownout.StageBudget
	bias     []float64
	sources  []source
	slos     []time.Duration
	header   Result
	// The attachments' hooks on the node: the live-corpus overlay, the
	// observers of completed requests, auxiliary event sources, and a
	// bind step on the composed pipeline.
	live      retrieval.LiveCost
	observers []serve.Sink
	aux       []serve.Aux
	bind      func(*serve.Pipeline) error
}

// source is one arrival stream: a corpus and its constant rate or
// rate schedule.
type source struct {
	w     *dataset.Workload
	rate  float64
	sched workload.Schedule
}

// The four front ends a topology is served through.
type frontKind int

const (
	// frontNode is the node's own pipeline: one fault-free replica on
	// one timeline — no router and no second collector.
	frontNode frontKind = iota
	// frontRouter is serve.Router over replicas sharing one timeline.
	frontRouter
	// frontExchange is serve.Exchange over one shard timeline per
	// replica, coupled by NetDelay links.
	frontExchange
	// frontResilient is serve.ResilientRouter on one timeline, with the
	// fault schedule installed.
	frontResilient
)

// front picks the front end, in the one place the choice is made.
func (s *servingSpec) front() frontKind {
	switch {
	case s.resilient():
		return frontResilient
	case s.NetDelay > 0:
		return frontExchange
	case s.replicas == 1:
		return frontNode
	}
	return frontRouter
}

// validate is the single place the combination rules live; each
// rejection states why the combination cannot run. It resolves the
// routing policy and runs before any offline work.
func (s *servingSpec) validate() error {
	if s.replicas < 1 {
		return fmt.Errorf("rag: need at least one replica, got %d", s.replicas)
	}
	if s.NetDelay < 0 {
		return fmt.Errorf("rag: negative NetDelay %v", s.NetDelay)
	}
	policy, err := serve.ResolvePolicy(s.policy)
	if err != nil {
		return err
	}
	s.policy = policy
	if s.Precision != nil && s.Kind != VLiteRAG {
		return fmt.Errorf("rag: precision refinement applies to %s only, not %s — the baselines have no placement decision to refine", VLiteRAG, s.Kind)
	}
	if s.resilient() {
		if s.replicas < 2 {
			return fmt.Errorf("rag: fault injection and resilience need replicas to fail over to — use RunCluster with at least two")
		}
		if s.Overload != nil {
			return fmt.Errorf("rag: overload control cannot run under faults: the resilient router's degradation and brownout's first rung both write req.Degrade")
		}
		if s.NetDelay > 0 {
			return fmt.Errorf("rag: NetDelay %v cannot combine with faults: failover, retries and hedging need the router and every replica on one timeline", s.NetDelay)
		}
		if err := s.Faults.Validate(s.replicas); err != nil {
			return err
		}
	}
	if s.Overload != nil && s.sharedQueue {
		return fmt.Errorf("rag: overload control needs the fair scheduler's per-tenant queues; it cannot bound the shared-queue baseline")
	}
	if (s.adapt || s.ingest != nil) && s.replicas > 1 {
		return fmt.Errorf("rag: the adapt controller and streaming ingest attach to one node's timeline; they cannot serve %d replicas", s.replicas)
	}
	if s.adapt && s.Kind != VLiteRAG {
		return fmt.Errorf("rag: adaptive serving and compaction hot-swap the split plan, which only the vLiteRAG runtime supports; got %s", s.Kind)
	}
	if s.adapt && s.Overload != nil {
		return fmt.Errorf("rag: overload control and the adapt controller would fight over the same latency signal; run one or the other")
	}
	return nil
}

// arrivalSeed derives source i's arrival seed, keeping each path's
// historical stream: Seed+7 for a single system, stepping by 13 per
// tenant on one timeline; tenant sources on the exchange split Seed+7
// by pinned stream, so the front's multiplexed order is a pure
// function of (Seed, tenant index).
func (s *servingSpec) arrivalSeed(i int) uint64 {
	if s.tenants != nil && s.front() == frontExchange {
		return rng.Stream(s.Seed+7, uint64(i))
	}
	return s.Seed + 7 + 13*uint64(i)
}

// composed is what the composer hands back to the presets: the
// cluster-shaped result (a single node is its one replica), the
// per-tenant breakdown of a multi-tenant run, and the attachments'
// handles, from which each preset fills its own report.
type composed struct {
	ClusterResult
	tenants    []TenantResult
	fairness   float64
	attainment float64
	warmup     des.Time // the excluded prefix, defaults filled

	ctrl     *adapt.Controller // nil without adapt
	expected float64           // the controller's initial hit-rate anchor
	ing      *ingest.Ingester  // nil without ingest
	store    *ingest.Store
}

// replicaNode is one built replica: its pipeline plus the admission
// machinery the result assembler reads.
type replicaNode struct {
	pipe  *serve.Pipeline
	coll  *serve.Collector // the node's own collector; nil behind the resilient router
	sched *serve.FairScheduler
	rig   *overloadRig
}

// buildNode composes one replica: Admit(own) → [FairScheduler and
// overload rig] → retrieval → generation, ending in the tee that
// records the request in front and own (whichever are set), lets the
// rig and the attachments observe it, and releases it last. own is nil
// behind the resilient router, which records for its replicas.
func (s *servingSpec) buildNode(sim *des.Sim, front, own *serve.Collector, release serve.Sink) (*replicaNode, error) {
	retr, gen := s.stages(sim, s.live)
	n := &replicaNode{coll: own}
	var record, abandon []serve.Sink
	for _, c := range []*serve.Collector{front, own} {
		if c != nil {
			record = append(record, c.Done)
			abandon = append(abandon, c.Abandon)
		}
	}
	var err error
	if s.classes != nil {
		if n.sched, err = serve.NewFairScheduler(s.classes, s.inflight); err != nil {
			return nil, err
		}
	}
	if s.Overload != nil {
		// A rejected request freezes its records as unserved, then leaves
		// the node like a served one.
		if n.rig, err = rigOverload(sim, s.Overload, n.sched, s.budgets, s.bias,
			serve.Tee(append(abandon, release)...)); err != nil {
			return nil, err
		}
	}
	terminal := teeObserve(n.rig, record, release, s.observers...)
	var builders []serve.Builder
	if own != nil {
		builders = append(builders, serve.Admit(own))
	}
	if n.sched != nil {
		builders = append(builders, serve.Scheduled(n.sched))
	}
	if n.pipe, err = serve.Compose(sim, terminal, append(builders, retr, gen)...); err != nil {
		return nil, err
	}
	if n.sched != nil {
		// The scheduler meters the TTFT section — retrieval queue, search,
		// LLM wait, prefill — and frees the slot at first token: decode
		// runs concurrently for many requests and must not hold admission
		// slots. Completion re-installs the terminal sink.
		n.pipe.Generation().Cluster.SetCallbacks(n.sched.Release, terminal)
	}
	if s.bind != nil {
		return n, s.bind(n.pipe)
	}
	return n, nil
}

// compose builds the replicas behind the spec's front end, drives
// every source through it in virtual time, and assembles the result.
// sim is the one timeline (the exchange runs its own shards instead).
func compose(s *servingSpec, sim *des.Sim) (*composed, error) {
	front := s.front()
	pool := &workload.Pool{}
	coll := serve.NewCollector() // the front's collector
	srcSim := sim                // where arrivals and drift run
	var (
		submit serve.Sink
		x      *serve.Exchange
		router *serve.ResilientRouter
		err    error
	)
	if front == frontExchange {
		if x, err = serve.NewExchange(s.policy, s.replicas, s.NetDelay, s.NetDelay, pool); err != nil {
			return nil, err
		}
		srcSim, submit = x.FrontSim(), x.Submit
	}
	nodes := make([]*replicaNode, s.replicas)
	var reps []*serve.Replica // the routers' replica handles
	if front == frontRouter || front == frontResilient {
		for range nodes {
			reps = append(reps, serve.NewReplica())
		}
	}
	for i := range nodes {
		switch front {
		case frontNode:
			nodes[i], err = s.buildNode(sim, nil, coll, pool.Release)
		case frontRouter:
			nodes[i], err = s.buildNode(sim, coll, serve.NewCollector(), serve.Tee(reps[i].Release, pool.Release))
		case frontResilient:
			// The router settles every completion, but it can only be built
			// after the replicas exist — the terminal late-binds.
			nodes[i], err = s.buildNode(sim, nil, nil, func(req *workload.Request) { router.Complete(i, req) })
		case frontExchange:
			// The record snapshots on the replica; the notice ships the
			// request home, and ownership moves back to the front with it.
			nodes[i], err = s.buildNode(x.ReplicaSim(i), nil, serve.NewCollector(), x.NoticeSink(i))
		}
		if err != nil {
			return nil, err
		}
		if reps != nil {
			reps[i].Bind(nodes[i].pipe)
		}
		if x != nil {
			x.BindReplica(i, nodes[i].pipe.Submit)
		}
	}
	switch front {
	case frontNode:
		submit = nodes[0].pipe.Submit
	case frontRouter:
		r, err := serve.NewRouter(s.policy, reps)
		if err != nil {
			return nil, err
		}
		if submit, err = admitFront(sim, coll, r.Submit); err != nil {
			return nil, err
		}
	case frontResilient:
		rcfg := serve.ResilienceConfig{}
		if s.Resilience != nil {
			rcfg = *s.Resilience
		}
		rcfg.Policy = s.policy
		if router, err = serve.NewResilientRouter(sim, rcfg, reps, coll, pool); err != nil {
			return nil, err
		}
		if submit, err = admitFront(sim, coll, router.Submit); err != nil {
			return nil, err
		}
		// Health events hit the router; slowdown episodes hit the
		// affected replica's engines directly.
		fault.Install(sim, s.Faults, fault.Hooks{
			Crash:   router.Crash,
			Recover: router.Recover,
			SlowLLM: func(r int, f float64, until des.Time) {
				nodes[r].pipe.Generation().Cluster.SetSlowdown(f, until)
			},
			SlowRetrieval: func(r int, f float64, until des.Time) {
				if sl, ok := nodes[r].pipe.Retrieval().Engine.(retrieval.Slowdowner); ok {
					sl.SetSlowdown(f, until)
				}
			},
		})
	}

	// Drift rotates popularity where its only reader, arrival sampling,
	// lives, so the replica shards never touch the rotation.
	defer installDrift(srcSim, s.Options)()
	workers := shardWorkers(s.Workers)
	sec := beginServeSection()
	for _, a := range s.aux {
		a.Start(sim, des.Time(s.Duration))
	}
	for i, src := range s.sources {
		var arr *serve.Arrivals
		if src.sched != nil {
			arr = serve.NewScheduledArrivals(src.w, src.sched, s.Shape, s.arrivalSeed(i))
		} else {
			arr = serve.NewArrivals(src.w, src.rate, s.Shape, s.arrivalSeed(i))
		}
		arr.SetTenant(i)
		arr.SetPool(pool)
		arr.Start(srcSim, des.Time(s.Duration), submit)
	}
	if end := des.Time(s.Duration + s.Drain); x != nil {
		x.Run(end, workers)
	} else {
		sim.RunUntil(end)
	}
	wall, allocs, bytes := sec.end()

	c := &composed{ClusterResult: ClusterResult{Result: s.header, Policy: s.policy}, warmup: des.Time(s.Warmup)}
	c.ServeWall, c.ServeAllocs, c.ServeBytes = wall, allocs, bytes
	submitted := make([]int, len(nodes))
	if x != nil {
		c.Requests, c.Generated = mergeShardRecords(x, nodes), x.Arrivals()
		c.Workers, c.NetDelay = workers, s.NetDelay
		for i := range nodes {
			submitted[i] = x.Submitted(i)
		}
		if s.tenants == nil {
			c.Summary = metrics.Summarize(c.Requests, s.slos[0], c.warmup)
		}
	} else {
		c.Requests, c.Generated = coll.Requests(), coll.Admitted()
		submitted[0] = c.Generated // the node's own front admits everything
		for i, rep := range reps {
			submitted[i] = rep.Submitted()
		}
		if s.tenants == nil {
			c.Summary = coll.Summarize(s.slos[0], c.warmup)
		}
	}
	if router != nil {
		c.Resilience = &ResilienceReport{
			Faults:     s.Faults,
			Stats:      router.Stats(),
			Goodput:    metrics.Goodput(c.Requests, s.slos[0], c.warmup, des.Time(s.Duration)),
			Recoveries: router.Recoveries(),
		}
	}
	s.assemble(c, nodes, submitted)
	return c, nil
}

// admitFront composes a router's front: admission into the front
// collector, then the router.
func admitFront(sim *des.Sim, coll *serve.Collector, route serve.Sink) (serve.Sink, error) {
	p, err := serve.Compose(sim, route, serve.Admit(coll))
	if err != nil {
		return nil, err
	}
	return p.Submit, nil
}

// assemble fills the aggregates every topology reports: per-replica
// results, LLM GPUs, AvgBatch and RecallGain weighted by what each
// replica was submitted (a single replica reports its own values), the
// per-tenant summaries with Jain's index and the weighted attainment,
// and the merged overload report.
func (s *servingSpec) assemble(c *composed, nodes []*replicaNode, submitted []int) {
	var batchSum, gainSum float64
	total := 0
	for i, n := range nodes {
		rr := ReplicaResult{
			Submitted: submitted[i],
			AvgBatch:  n.pipe.Retrieval().AvgBatch(),
			LLMGPUs:   n.pipe.Generation().GPUs(s.Model.TP),
		}
		// Per-replica summaries exist where a replica keeps its own
		// collector: behind the resilient router, retries and hedges
		// would register one logical request with several replicas.
		switch {
		case s.tenants != nil || n.coll == nil:
		case s.front() == frontNode:
			rr.Summary = c.Summary
		default:
			rr.Summary = n.coll.Summarize(s.slos[0], c.warmup)
		}
		c.PerReplica = append(c.PerReplica, rr)
		c.LLMGPUs += rr.LLMGPUs
		batchSum += rr.AvgBatch * float64(rr.Submitted)
		gainSum += recallGain(n) * float64(rr.Submitted)
		total += rr.Submitted
	}
	if len(nodes) == 1 {
		c.AvgBatch, c.RecallGain = c.PerReplica[0].AvgBatch, recallGain(nodes[0])
	} else if total > 0 {
		// Resilient replicas count routed copies, so the average runs
		// over those.
		c.AvgBatch, c.RecallGain = batchSum/float64(total), gainSum/float64(total)
	}
	if s.Overload != nil {
		c.Overload = mergeOverloadReports(s.Overload, nodes, len(s.sources),
			des.Time(s.Duration+s.Drain), s.Duration+s.Drain)
	}
	if s.tenants == nil {
		return
	}
	// Each tenant is judged against its own combined SLO. Records
	// partition by tenant in arrival order; queue peaks take the worst
	// replica and rejections sum across replicas.
	byTenant := make([][]workload.Request, len(s.tenants))
	for _, req := range c.Requests {
		t := req.Tenant
		if t < 0 || t >= len(byTenant) {
			t = 0
		}
		byTenant[t] = append(byTenant[t], req)
	}
	atts := make([]float64, len(s.tenants))
	var okWeighted float64
	var served int
	for i, tc := range s.tenants {
		sum := metrics.Summarize(byTenant[i], s.slos[i], c.warmup)
		tr := TenantResult{Name: tc.Name, Tier: tc.Tier, Rate: tc.Rate, SLOTotal: s.slos[i], Summary: sum}
		for _, n := range nodes {
			if n.sched != nil {
				tr.PeakQueue = max(tr.PeakQueue, n.sched.PeakQueue(i))
			}
			if n.rig != nil {
				tr.Rejected += n.sched.Rejected(i)
			}
		}
		c.tenants = append(c.tenants, tr)
		atts[i] = sum.Attainment
		okWeighted += sum.Attainment * float64(sum.N)
		served += sum.N
	}
	c.fairness = metrics.JainIndex(atts)
	if served > 0 {
		c.attainment = okWeighted / float64(served)
	}
}

// recallGain is a replica engine's served recall gain (zero for
// engines without a precision refinement).
func recallGain(n *replicaNode) float64 {
	if rr, ok := n.pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
		return rr.RecallGain()
	}
	return 0
}

// single is the spec of a one-node run. A single node has no shards to
// spread and no network to model, so Workers and NetDelay are ignored.
func single(opts Options) servingSpec {
	opts.Workers, opts.NetDelay = 0, 0
	return servingSpec{Options: opts, replicas: 1}
}

// runSystem is the offline prelude of a single-system run: it
// validates the spec, makes the system's resource decision once, and
// hands the composer a stage factory that instantiates it on every
// replica, plus the single-node attachments when configured.
func runSystem(s servingSpec) (*composed, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sloTotal, err := s.Options.normalize()
	if err != nil {
		return nil, err
	}
	opts := s.Options
	prof, err := profileFor(opts)
	if err != nil {
		return nil, err
	}
	cpuModel := costmodel.NewSearchModel(opts.Node.CPU, opts.W.Spec)
	d, err := decide(opts, prof, cpuModel)
	if err != nil {
		return nil, err
	}
	s.stages = func(sim *des.Sim, live retrieval.LiveCost) (retr, gen serve.Builder) {
		return stageBuilders(sim, opts, d, cpuModel, live)
	}
	s.sources = []source{{w: opts.W, rate: opts.Rate, sched: opts.RateSchedule}}
	s.slos = []time.Duration{sloTotal}
	if opts.Overload != nil {
		// Overload control meters each node through a single-class
		// FairScheduler with the run's own stage SLOs as budgets.
		s.classes, s.inflight = []serve.TenantClass{{Weight: 1, Priority: 0}}, 32
		s.budgets = []brownout.StageBudget{opts.Overload.budget(opts.SLOSearch, opts.SLOGen)}
		s.bias = []float64{1}
	}
	mu0 := d.mu0
	if s.adapt && mu0 == 0 { // the prebuilt-plan path skips the capacity measurement
		if mu0, err = bareCapacity(opts.Node, opts.Model, opts.Node.NumGPUs, opts.Shape); err != nil {
			return nil, err
		}
	}
	s.header = Result{
		Kind: opts.Kind, Rate: opts.Rate, SLOTotal: sloTotal,
		Rho: d.rho, PlanBytes: d.planBytes, Mu0: mu0, Partition: d.partition,
	}
	if d.plan != nil && d.plan.Prec != nil {
		s.header.SQClusters = d.plan.Prec.SQClusters
		s.header.NVMeClusters = d.plan.Prec.NVMeClusters
	}

	// The single-node attachments go onto the node's timeline ahead of
	// its pipeline: the ingester and its mutation streams, then the
	// adapt controller, which observes completions and binds to the
	// engine with the ingester as its compactor.
	var sim des.Sim
	var h composed
	if s.ingest != nil {
		h.store = ingest.NewStore(opts.W)
		h.ing = ingest.New(ingest.Config{
			Sim:           &sim,
			Store:         h.store,
			Node:          opts.Node,
			ReencodeEvery: s.ingest.ReencodeEvery,
			Horizon:       des.Time(opts.Duration + opts.Drain),
		})
		s.live = h.store
		s.aux = mutationSources(opts, s.ingest, h.ing)
	}
	if s.adapt {
		if h.ctrl, h.expected, err = newController(&sim, &s, prof, cpuModel, d.rho, mu0, sloTotal); err != nil {
			return nil, err
		}
		s.observers = []serve.Sink{h.ctrl.Observe}
		s.bind = func(pipe *serve.Pipeline) error {
			hs, ok := pipe.Retrieval().Engine.(retrieval.HotSwapper)
			if !ok {
				return fmt.Errorf("rag: engine %s is not hot-swappable", pipe.Retrieval().Engine.Name())
			}
			h.ctrl.Bind(hs)
			if h.ing != nil {
				h.ctrl.BindCompactor(h.ing)
			}
			return nil
		}
	}
	c, err := compose(&s, &sim)
	if err != nil {
		return nil, err
	}
	c.ctrl, c.expected, c.ing, c.store = h.ctrl, h.expected, h.ing, h.store
	return c, nil
}

// DefaultNetDelay is the modeled front-end↔replica network transit a
// run gets when it asks for parallelism (Workers > 1) without choosing
// a NetDelay explicitly. One millisecond is a realistic same-datacenter
// RTT half and, as the conservative lookahead, wide enough that shards
// execute thousands of events per synchronization window.
const DefaultNetDelay = time.Millisecond

// shardWorkers resolves the Workers option: zero or negative means one
// worker per core.
func shardWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// mergeShardRecords assembles the global per-request record set of a
// sharded run in front arrival order. Every routed request carries its
// global arrival index as its ID (the Exchange restamps at Submit), so
// per-replica collector records scatter straight into one slice;
// requests still in network transit when the clock stopped never
// reached a collector and are snapshotted from the wire — admitted but
// unserved, exactly how the single-timeline collector reported a
// request stuck between router and replica at the deadline.
func mergeShardRecords(x *serve.Exchange, nodes []*replicaNode) []workload.Request {
	records := make([]workload.Request, x.Arrivals())
	for _, n := range nodes {
		for _, rec := range n.coll.Requests() {
			if rec.ID >= 0 && rec.ID < len(records) {
				records[rec.ID] = rec
			}
		}
	}
	x.DrainArrivals(func(req *workload.Request) {
		if req.ID >= 0 && req.ID < len(records) {
			records[req.ID] = *req
		}
	})
	return records
}

// newController builds the adapt controller for a run. It fits the
// hit-rate estimator and the CPU latency model from the run's profile
// once; the controller re-uses them across cycles and re-measures only
// the access profile, because drift moves the query distribution, not
// the machine. It returns the controller and the initial plan's
// model-expected mean hit rate (the monitor's first anchor).
func newController(sim *des.Sim, spec *servingSpec, prof *profiler.AccessProfile, cpuModel costmodel.SearchModel,
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
