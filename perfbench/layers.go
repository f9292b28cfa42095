package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/ivf"
	"vectorliterag/internal/kmeans"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/pq"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// The traced run times each layer by calling its public functions
// itself, with the inputs the serving run hands them, because spans
// inside the program are not there yet. These constants mirror the
// index configuration dataset.Build trains with; the probe checks that
// its own index matches the corpus's, so a drift between the two fails
// the run instead of timing the wrong thing.
const (
	buildPQM        = 8
	buildPQK        = 64
	buildTrainIters = 8
	buildSeedOffset = 11
	profileQueries  = 4000
)

// buildProbe times k-means, PQ training, the whole IVF build and a
// probe pass on one corpus, with the build's own configuration.
func buildProbe(t *tracer, w *dataset.Workload) error {
	gc := w.Gen
	root := t.begin("probe.build", -1, -1)
	defer t.end(root)
	var err error
	t.call("kmeans.Train", root, -1, func() {
		_, err = kmeans.Train(w.Data, kmeans.Config{K: gc.PhysNList, Dim: gc.Dim,
			MaxIters: buildTrainIters, Seed: gc.Seed + buildSeedOffset, Workers: gc.Workers})
	})
	if err != nil {
		return err
	}
	t.call("pq.Train", root, -1, func() {
		_, err = pq.Train(w.Data, pq.Config{Dim: gc.Dim, M: buildPQM, K: buildPQK,
			Iters: buildTrainIters, Seed: gc.Seed + buildSeedOffset + 1, Workers: gc.Workers})
	})
	if err != nil {
		return err
	}
	var ix *ivf.Index
	t.call("ivf.Build", root, -1, func() {
		ix, err = ivf.Build(w.Data, ivf.BuildConfig{Dim: gc.Dim, NList: gc.PhysNList,
			PQM: buildPQM, PQK: buildPQK, TrainIters: buildTrainIters,
			Seed: gc.Seed + buildSeedOffset, Workers: gc.Workers})
	})
	if err != nil {
		return err
	}
	if !slices.Equal(ix.ClusterSizes(), w.Index.ClusterSizes()) {
		return fmt.Errorf("probe index of %s differs from the corpus index", w.Spec.Name)
	}
	r := rng.New(gc.Seed)
	queries := make([][]float32, gc.Templates)
	for i, q := range w.SampleMany(r, gc.Templates) {
		queries[i] = w.QueryVector(q, r)
	}
	t.call("ivf.Probe", root, -1, func() {
		for _, q := range queries {
			ix.Probe(q, gc.PhysNProbe)
		}
	})
	return nil
}

// planProbe is one planning decision the traced run re-derives layer by
// layer: the access profile, the hit-rate estimator, the latency model,
// Algorithm 1, HedraRAG's rule and the split. wantRho and wantHedra are
// the coverages the serving runs chose (NaN where no run made that
// decision); the probe must reproduce them.
type planProbe struct {
	key       string
	w         *dataset.Workload
	dep       deployment
	sloSearch time.Duration
	wantRho   float64
	wantHedra float64
}

// nodeKVBytes is Algorithm 1's MemKV input: the node's KV capacity with
// no index loaded.
func nodeKVBytes(d deployment) int64 {
	perGPU := max(d.node.GPU.UsableMem()-d.model.WeightBytesPerGPU(), 0)
	return perGPU * int64((d.node.NumGPUs/d.model.TP)*d.model.TP)
}

// run times each planning layer once and returns Algorithm 1's
// iteration count.
func (p planProbe) run(t *tracer, seed uint64) (int, error) {
	root := t.begin("probe.plan", -1, -1)
	defer t.end(root)
	var err error
	var prof *profiler.AccessProfile
	t.call("profiler.CollectAccess", root, -1, func() {
		prof, err = profiler.CollectAccess(p.w, profileQueries, seed+1)
	})
	if err != nil {
		return 0, err
	}
	var est *hitrate.Estimator
	t.call("hitrate.NewEstimator", root, -1, func() { est, err = hitrate.NewEstimator(prof) })
	if err != nil {
		return 0, err
	}
	var perf *perfmodel.Model
	t.call("perfmodel.Fit", root, -1, func() {
		cm := costmodel.NewSearchModel(p.dep.node.CPU, p.w.Spec)
		perf, err = perfmodel.Fit(profiler.ProfileLatency(cm, profiler.DefaultBatches()))
	})
	if err != nil {
		return 0, err
	}
	mu0, err := rag.BareCapacity(p.dep.node, p.dep.model, workload.DefaultShape())
	if err != nil {
		return 0, err
	}
	memKV := nodeKVBytes(p.dep)
	var lb, hedra partition.Result
	t.call("partition.LatencyBounded", root, -1, func() {
		lb, err = partition.LatencyBounded(partition.Inputs{
			SLOSearch: p.sloSearch, Perf: perf, Est: est, MemKV: memKV, Mu0: mu0,
			IndexBytesAt: splitter.IndexBytesAt(prof),
		})
	})
	if err != nil {
		return 0, err
	}
	t.call("partition.Hedra", root, -1, func() {
		hedra, err = partition.Hedra(partition.HedraInputs{
			Perf: perf, Est: est, MemKV: memKV, Mu0: mu0,
			IndexBytesAt: splitter.IndexBytesAt(prof),
		})
	})
	if err != nil {
		return 0, err
	}
	t.call("splitter.Build", root, -1, func() {
		_, err = splitter.Build(prof, lb.Rho, p.dep.node.NumGPUs)
	})
	if err != nil {
		return 0, err
	}
	if !math.IsNaN(p.wantRho) && lb.Rho != p.wantRho {
		return 0, fmt.Errorf("plan %s: Algorithm 1 chose rho %v, the serving run %v", p.key, lb.Rho, p.wantRho)
	}
	if !math.IsNaN(p.wantHedra) && hedra.Rho != p.wantHedra {
		return 0, fmt.Errorf("plan %s: HedraRAG chose rho %v, the serving run %v", p.key, hedra.Rho, p.wantHedra)
	}
	return lb.Iterations, nil
}
