package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"vectorliterag/internal/dataset"
)

// endToEndNames and perLayerNames are the metrics the result line
// carries with tracing off and on; BENCHMARK.json lists the same names.
var (
	endToEndNames = []string{
		"setup_s", "iter_ms_p50", "iter_ms_tail", "sim_req_per_s", "peak_rss_mb",
		"attainment", "ttft_p50_ms",
	}
	perLayerNames = []string{
		"dataset.build_ms", "kmeans.train_ms", "pq.train_ms", "ivf.build_ms", "ivf.probe_ms", "ivf.recall10",
		"profiler.collect_ms", "hitrate.estimator_ms", "perfmodel.fit_ms",
		"partition.latency_bounded_ms", "partition.hedra_ms", "partition.iterations",
		"splitter.build_ms", "rag.offline_ms",
		"splitter.rho", "retrieval.hit_rate", "retrieval.avg_batch",
		"rag.serve_ms", "rag.serve_req_per_s", "rag.serve_allocs_per_req", "rag.serve_bytes_per_req",
		"retrieval.queue_ms", "retrieval.search_ms", "llm.wait_ms", "llm.prefill_ms",
		"metrics.summarize_ms",
	}
)

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory the trace file goes to
	sc      scale
}

// ops counts benchmark operations — builds, serving runs, checks that
// run on their own — and the ones that failed.
type ops struct {
	attempted, failed int
	w                 io.Writer
}

// check records one operation; err marks it failed and is printed.
func (o *ops) check(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(o.w, "FAIL %s: %v\n", what, err)
	}
	return err == nil
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one run's state.
type runner struct {
	def  workloadDef
	cfg  config
	envs []*env  // the seeded variants, first seeded by --seed itself
	t    *tracer // nil when untraced
	ops  *ops
	w    io.Writer
	refs map[string]*sample // the first sample of each iteration key
	ref  []*sample          // the same, in run order
}

// variantSeed is the seed of variant j: the run's own seed for the first
// variant, and seeds no other run's first variant uses for the rest.
func variantSeed(seed uint64, j int) uint64 { return seed + uint64(j)<<32 }

// execute runs one workload and returns the result line. Output lines
// for people go to w as the run proceeds.
func execute(def workloadDef, cfg config, w io.Writer) (*result, error) {
	r := &runner{def: def, cfg: cfg, w: w, ops: &ops{w: w}, refs: map[string]*sample{}}
	variants := def.variants
	if cfg.sc.maxVariants > 0 {
		variants = min(variants, cfg.sc.maxVariants)
	}
	if cfg.trace {
		r.t = newTracer()
		variants = 1
	}
	buildWorkers := runtime.NumCPU()
	h := fingerprint(cfg.seed, buildWorkers, def.serveWorkers)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v variants=%d\n",
		def.name, cfg.seed, cfg.seconds, cfg.trace, variants)
	fmt.Fprintf(w, "why: %s\n", def.why)
	fmt.Fprintf(w, "host %s\n", h)

	setups, err := r.setup(variants, buildWorkers)
	if err != nil {
		return nil, err
	}
	recalls := r.checkRecall()
	var iters []iteration
	for j, e := range r.envs {
		its, err := def.iterations(e)
		if err != nil {
			return nil, fmt.Errorf("preparing %s: %w", def.name, err)
		}
		for _, it := range its {
			iters = append(iters, iteration{key: fmt.Sprintf("v%d/%s", j, it.key), variant: j, run: it.run})
		}
	}
	minIters := len(iters)
	if !def.fullPass && !cfg.trace {
		minIters = max(minIters, cfg.sc.minIters)
	}
	var metrics []metric
	if !cfg.trace {
		steal0, total0 := cpuTicks()
		samples, _ := r.loop(iters, minIters, 0)
		steal1, total1 := cpuTicks()
		r.checkOneWorker(samples)
		if len(r.ref) == 0 {
			return nil, fmt.Errorf("%s: no iteration succeeded", def.name)
		}
		all := r.endToEnd(setups, samples)
		for _, m := range all {
			printMetric(w, m)
			if slices.Contains(endToEndNames, m.name) {
				metrics = append(metrics, m)
			}
		}
		fmt.Fprintf(w, "host steal %.1f%% of CPU time during the timed phase\n",
			100*share(float64(steal1-steal0), float64(total1-total0)))
	} else {
		twinEvery := 1
		if len(iters) > 1 {
			twinEvery = 6
		}
		traced, twins := r.loop(iters, minIters, twinEvery)
		speedup := r.checkOneWorker(traced)
		if len(r.ref) == 0 {
			return nil, fmt.Errorf("%s: no iteration succeeded", def.name)
		}
		iterations := r.probes()
		metrics = r.perLayer(traced, recalls, iterations)
		for _, m := range metrics {
			printMetric(w, m)
		}
		for _, m := range r.ref[0].extra {
			printMetric(w, m)
		}
		if speedup > 0 {
			printMetric(w, metric{name: "des.shard_speedup", unit: "ratio", value: speedup,
				note: fmt.Sprintf("serve wall at 1 worker / at %d workers", def.serveWorkers)})
		}
		r.printOverhead(twins)
		fmt.Fprintln(w, "self time by span:")
		r.t.writeSelfTimes(w)
		if err := r.writeTrace(h); err != nil {
			return nil, err
		}
	}
	for j := range r.envs {
		d := newDigest()
		n := 0
		for _, s := range r.ref {
			if s.variant == j {
				d.int(int64(s.digest))
				n++
			}
		}
		fmt.Fprintf(w, "sim_digest v%d seed=%d %016x over %d distinct runs\n", j, r.envs[j].seed, d.sum(), n)
	}
	printMetric(w, metric{name: "failed_share", unit: "share",
		value: share(float64(r.ops.failed), float64(r.ops.attempted)),
		note:  fmt.Sprintf("%d of %d operations", r.ops.failed, r.ops.attempted)})

	res := &result{
		Correct: r.ops.failed == 0, Attempted: r.ops.attempted, Failed: r.ops.failed,
		Metrics: map[string]jsonValue{},
	}
	for _, m := range metrics {
		res.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	return res, nil
}

func printMetric(w io.Writer, m metric) {
	fmt.Fprintf(w, "metric %-30s %16.6f %-10s %s\n", m.name, m.value, m.unit, m.note)
}

// setup builds, for each variant, every corpus the workload serves
// from the variant's seed, and returns each set-up's wall time in
// seconds.
func (r *runner) setup(variants, workers int) ([]float64, error) {
	var times []float64
	for j := 0; j < variants; j++ {
		e := &env{seed: variantSeed(r.cfg.seed, j), sc: r.cfg.sc, corpora: map[string]*dataset.Workload{}}
		gen := r.cfg.sc.gen
		gen.Seed, gen.Workers = e.seed, workers
		root := r.t.begin("setup", -1, -1)
		t0 := time.Now()
		for _, spec := range r.def.corpora {
			var w *dataset.Workload
			var err error
			r.t.call("dataset.Build", root, -1, func() { w, err = dataset.Build(spec, gen) })
			if !r.ops.check("build "+spec.Name, err) {
				return nil, fmt.Errorf("building %s: %w", spec.Name, err)
			}
			e.corpora[spec.Name] = w
		}
		times = append(times, time.Since(t0).Seconds())
		r.t.end(root)
		r.envs = append(r.envs, e)
	}
	return times, nil
}

// checkRecall scores each built index against the recall floor.
func (r *runner) checkRecall() []float64 {
	var out []float64
	for _, e := range r.envs {
		for _, spec := range r.def.corpora {
			w := e.corpus(spec)
			var rec float64
			r.t.call("ivf.probe_recall", -1, -1, func() { rec = probeRecall(w, e.seed) })
			var err error
			if rec < recallFloor {
				err = fmt.Errorf("recall@10 %.3f below the floor %.2f", rec, recallFloor)
			}
			r.ops.check("recall "+spec.Name, err)
			out = append(out, rec)
		}
	}
	return out
}

// iterate runs one iteration, checks it, and checks its digest against
// the first run of the same iteration.
func (r *runner) iterate(it iteration, t *tracer, id int) *sample {
	// Return freed memory first, so the high-water mark measures this
	// iteration rather than what earlier ones left resident.
	debug.FreeOSMemory()
	resetPeakRSS()
	root := t.begin("iteration", -1, id)
	s, err := it.run(t, root, id)
	t.end(root)
	if err == nil {
		s.key, s.variant, s.rssMB = it.key, it.variant, peakRSSMB()
		if ref, seen := r.refs[it.key]; seen && ref.digest != s.digest {
			err = fmt.Errorf("determinism: digest %016x, first run %016x", s.digest, ref.digest)
		}
	}
	if !r.ops.check(it.key, err) {
		return nil
	}
	if _, seen := r.refs[it.key]; seen {
		s.ttft = nil // the reference run already holds the samples
	} else {
		r.refs[it.key] = s
		r.ref = append(r.ref, s)
	}
	return s
}

// pair is one iteration run traced and again untraced.
type pair struct{ traced, untraced *sample }

// loop runs iterations in order until the run's seconds have passed and
// at least minIters have run. With twinEvery > 0 every iteration runs
// traced, and every twinEvery-th one also runs untraced, alternating
// which goes first, to measure the tracing overhead.
func (r *runner) loop(iters []iteration, minIters, twinEvery int) ([]*sample, []pair) {
	var samples []*sample
	var pairs []pair
	start := time.Now()
	for i := 0; i < minIters || time.Since(start).Seconds() < r.cfg.seconds; i++ {
		it := iters[i%len(iters)]
		if twinEvery == 0 || i%twinEvery != 0 {
			if s := r.iterate(it, r.t, i); s != nil {
				samples = append(samples, s)
			}
			continue
		}
		var p pair
		if (i/twinEvery)%2 == 0 {
			p.untraced = r.iterate(it, nil, i)
			p.traced = r.iterate(it, r.t, i)
		} else {
			p.traced = r.iterate(it, r.t, i)
			p.untraced = r.iterate(it, nil, i)
		}
		if p.traced != nil {
			samples = append(samples, p.traced)
		}
		if p.traced != nil && p.untraced != nil {
			pairs = append(pairs, p)
		}
	}
	return samples, pairs
}

// checkOneWorker reruns a sharded workload's first variant at 1 worker
// and checks that its schedule matches; it returns serve wall at 1
// worker over the median serve wall of the samples' runs of the same
// variant (0 when the workload has no 1-worker run).
func (r *runner) checkOneWorker(samples []*sample) float64 {
	if r.def.oneWorker == nil || len(r.ref) == 0 {
		return 0
	}
	it := r.def.oneWorker(r.envs[0])
	s, err := it.run(nil, -1, -1)
	if err == nil && s.digest != r.ref[0].digest {
		err = fmt.Errorf("digest %016x at 1 worker, %016x at %d", s.digest, r.ref[0].digest, r.def.serveWorkers)
	}
	if !r.ops.check("workers invariance", err) {
		return 0
	}
	var walls []float64
	for _, x := range samples {
		if x.key == r.ref[0].key {
			walls = append(walls, x.serveWall.Seconds())
		}
	}
	return share(s.serveWall.Seconds(), median(walls))
}

// endToEnd computes the untraced run's host metrics over every timed
// iteration, followed by the simulated ones.
func (r *runner) endToEnd(setups []float64, samples []*sample) []metric {
	walls := make([]float64, len(samples))
	rates := make([]float64, len(samples))
	rss := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = ms(s.wall)
		rates[i] = share(float64(s.completed), s.wall.Seconds())
		rss[i] = s.rssMB
	}
	q, tailMS, ok := tail(walls)
	tailNote := fmt.Sprintf("p%g of %d iterations", 100*q, len(walls))
	if !ok {
		tailNote += fmt.Sprintf(" (fewer than %d: the median)", 2*minBeyond)
	}
	host := []metric{
		{name: "setup_s", unit: "s", value: median(setups),
			note: fmt.Sprintf("median of %d set-ups of %d corpora", len(setups), len(r.def.corpora))},
		{name: "iter_ms_p50", unit: "ms", value: median(walls), note: fmt.Sprintf("%d iterations", len(walls))},
		{name: "iter_ms_tail", unit: "ms", value: tailMS, note: tailNote},
		{name: "sim_req_per_s", unit: "req/s", value: median(rates),
			note: "simulated completions per host second, median over iterations"},
		{name: "peak_rss_mb", unit: "MB", value: median(rss),
			note: fmt.Sprintf("resident high-water mark per iteration, median; highest %.1f", slices.Max(rss))},
	}
	return append(host, r.simulated()...)
}

// variantMetrics returns variant j's simulated metrics: attainment and
// TTFT over its pooled samples, then the workload's own headline.
func (r *runner) variantMetrics(j int) []metric {
	var ref []*sample
	var n, ok int
	var ttft []float64
	for _, s := range r.ref {
		if s.variant != j {
			continue
		}
		ref = append(ref, s)
		if s.pooled {
			n += s.n
			ok += s.ok
			ttft = append(ttft, s.ttft...)
		}
	}
	if len(ref) == 0 {
		return nil
	}
	out := []metric{
		{name: "attainment", unit: "share", value: share(float64(ok), float64(n)),
			note: fmt.Sprintf("%d arrivals after warmup", n)},
		{name: "ttft_p50_ms", unit: "ms", value: quantile(ttft, 0.50), note: fmt.Sprintf("%d served requests", len(ttft))},
		{name: "ttft_p99_ms", unit: "ms", value: quantile(ttft, 0.99), note: fmt.Sprintf("%d served requests", len(ttft))},
	}
	return append(out, r.def.headline(r.envs[j], ref)...)
}

// simulated prints every variant's simulated metrics and returns each
// metric's median over the variants.
func (r *runner) simulated() []metric {
	var per [][]metric
	for j, e := range r.envs {
		vm := r.variantMetrics(j)
		if vm == nil {
			continue
		}
		per = append(per, vm)
		if len(r.envs) > 1 {
			fmt.Fprintf(r.w, "variant %d seed=%d:", j, e.seed)
			for _, m := range vm {
				fmt.Fprintf(r.w, " %s=%.6g", m.name, m.value)
				if m.note != "" {
					fmt.Fprintf(r.w, " (%s)", m.note)
				}
			}
			fmt.Fprintln(r.w)
		}
	}
	if len(per) == 0 {
		return nil
	}
	out := make([]metric, len(per[0]))
	for i, m := range per[0] {
		vals := make([]float64, len(per))
		for k, v := range per {
			vals[k] = v[i].value
		}
		m.value = median(vals)
		if len(per) > 1 {
			m.note = fmt.Sprintf("median of %d variants", len(per))
		}
		out[i] = m
	}
	return out
}

// probes runs the traced run's layer probes: each corpus build and each
// planning decision. It returns Algorithm 1's total iteration count.
func (r *runner) probes() int {
	for _, spec := range r.def.corpora {
		r.ops.check("build probe "+spec.Name, buildProbe(r.t, r.envs[0].corpus(spec)))
	}
	total := 0
	for _, p := range r.def.probes(r.envs[0], r.ref) {
		n, err := p.run(r.t, r.cfg.seed)
		r.ops.check("plan probe "+p.key, err)
		total += n
	}
	return total
}

// perLayer computes the traced run's metrics.
func (r *runner) perLayer(traced []*sample, recalls []float64, iterations int) []metric {
	t := r.t
	sum := func(name string) float64 {
		var v float64
		for _, d := range t.durations(name) {
			v += d
		}
		return v
	}
	med := func(name string) float64 { return median(t.durations(name)) }
	var serveMS, summ []float64
	var offline, arrived, serveSec, allocs, bytes float64
	for _, s := range traced {
		offline += ms(s.runWall - s.serveWall)
		serveMS = append(serveMS, ms(s.serveWall))
		summ = append(summ, ms(s.summarize))
		arrived += float64(s.arrived)
		serveSec += s.serveWall.Seconds()
		allocs += float64(s.allocs)
		bytes += float64(s.bytes)
	}
	var rho, batch, hitSum, served float64
	var hitN, pooled int
	var stages [4]float64
	for _, s := range r.ref {
		if !s.pooled {
			continue
		}
		pooled++
		rho += s.rho
		batch += s.avgBatch
		hitSum += s.hitSum
		hitN += s.hitN
		served += float64(s.served)
		for i := range stages {
			stages[i] += s.stages[i]
		}
	}
	stageMS := func(i int) float64 { return share(stages[i], served) / 1e6 }
	minRecall := 1.0
	for _, v := range recalls {
		minRecall = min(minRecall, v)
	}
	return []metric{
		{name: "dataset.build_ms", unit: "ms", value: sum("dataset.Build"), note: "all corpora"},
		{name: "kmeans.train_ms", unit: "ms", value: sum("kmeans.Train"), note: "coarse quantizer, all corpora"},
		{name: "pq.train_ms", unit: "ms", value: sum("pq.Train"), note: "all corpora"},
		{name: "ivf.build_ms", unit: "ms", value: sum("ivf.Build"), note: "all corpora"},
		{name: "ivf.probe_ms", unit: "ms", value: sum("ivf.Probe"), note: "one query per template, all corpora"},
		{name: "ivf.recall10", unit: "share", value: minRecall, note: "probe recall, lowest over corpora"},
		{name: "profiler.collect_ms", unit: "ms", value: med("profiler.CollectAccess")},
		{name: "hitrate.estimator_ms", unit: "ms", value: med("hitrate.NewEstimator")},
		{name: "perfmodel.fit_ms", unit: "ms", value: med("perfmodel.Fit")},
		{name: "partition.latency_bounded_ms", unit: "ms", value: med("partition.LatencyBounded")},
		{name: "partition.hedra_ms", unit: "ms", value: med("partition.Hedra")},
		{name: "partition.iterations", unit: "count", value: float64(iterations), note: "Algorithm 1, all plan probes"},
		{name: "splitter.build_ms", unit: "ms", value: med("splitter.Build")},
		{name: "rag.offline_ms", unit: "ms", value: share(offline, float64(len(traced))),
			note: "run wall minus serve wall, mean per iteration"},
		{name: "splitter.rho", unit: "ratio", value: share(rho, float64(pooled)), note: "mean coverage"},
		{name: "retrieval.hit_rate", unit: "share", value: share(hitSum, float64(hitN)), note: "work-weighted GPU hit rate"},
		{name: "retrieval.avg_batch", unit: "req", value: share(batch, float64(pooled))},
		{name: "rag.serve_ms", unit: "ms", value: median(serveMS)},
		{name: "rag.serve_req_per_s", unit: "req/s", value: share(arrived, serveSec)},
		{name: "rag.serve_allocs_per_req", unit: "allocs/req", value: share(allocs, arrived)},
		{name: "rag.serve_bytes_per_req", unit: "B/req", value: share(bytes, arrived)},
		{name: "retrieval.queue_ms", unit: "ms", value: stageMS(stageQueue), note: "simulated"},
		{name: "retrieval.search_ms", unit: "ms", value: stageMS(stageSearch), note: "simulated"},
		{name: "llm.wait_ms", unit: "ms", value: stageMS(stageLLMWait), note: "simulated"},
		{name: "llm.prefill_ms", unit: "ms", value: stageMS(stagePrefill), note: "simulated"},
		{name: "metrics.summarize_ms", unit: "ms", value: median(summ), note: "per iteration"},
	}
}

// printOverhead compares the iterations run both traced and untraced.
func (r *runner) printOverhead(pairs []pair) {
	if len(pairs) == 0 {
		return
	}
	tr := make([]float64, len(pairs))
	un := make([]float64, len(pairs))
	for i, p := range pairs {
		tr[i], un[i] = ms(p.traced.wall), ms(p.untraced.wall)
	}
	fmt.Fprintf(r.w, "trace overhead %+.2f%%: median iteration %.3f ms traced, %.3f ms untraced, over %d pairs (%d spans recorded)\n",
		100*(share(median(tr), median(un))-1), median(tr), median(un), len(pairs), len(r.t.spans))
}

// writeTrace writes the spans as Chrome trace-event JSON.
func (r *runner) writeTrace(h host) error {
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.out, fmt.Sprintf("trace_%s_seed%d.json", r.def.name, r.cfg.seed))
	if err := r.t.writeChrome(path, map[string]any{
		"workload": r.def.name, "seconds": r.cfg.seconds, "host": h,
	}); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(r.w, "trace written to %s\n", path)
	return nil
}

// writeResult prints the result as the output's last line.
func writeResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
