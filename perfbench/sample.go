package main

import (
	"math"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// sample is what one iteration reports: one serving run, including its
// planning and summarizing.
type sample struct {
	key     string
	variant int

	// Host side.
	wall      time.Duration // the iteration's calls into the system
	runWall   time.Duration // the rag call alone
	serveWall time.Duration // rag's simulation-section timer
	summarize time.Duration // the metrics.Summarize call(s)
	allocs    uint64        // heap allocations inside the simulation section
	bytes     uint64
	rssMB     float64 // resident high-water mark during the iteration

	// Simulated side, deterministic for a seed.
	arrived   int
	completed int
	pooled    bool       // counts toward attainment, TTFT and the stage means
	n, ok     int        // warmup-filtered arrivals, and those within their SLO
	served    int        // warmup-filtered served requests
	ttft      []float64  // their TTFTs in ms
	stages    [4]float64 // Σ stage mean × served requests, by stage
	hitSum    float64    // Σ work-weighted GPU hit rate over served records
	hitN      int
	goodput   float64
	rho       float64
	avgBatch  float64
	extra     []metric // workload-specific simulated metrics
	digest    uint64

	// Sweep bookkeeping.
	cell  string
	kind  rag.Kind
	rate  float64
	sloOK bool
}

// Stage order in sample.stages.
const (
	stageQueue = iota
	stageSearch
	stageLLMWait
	stagePrefill
)

// call runs f, one call into the system, inside a span and adds its
// wall time to the iteration's. The benchmark's own checks run between
// calls, so they stay out of the iteration time.
func (s *sample) call(t *tracer, name string, parent, iter int, f func()) time.Duration {
	d := t.call(name, parent, iter, f)
	s.wall += d
	return d
}

// addSummary folds one metrics.Summary into the sample: warmup-filtered
// counts, SLO-meeting requests, and the stage means weighted by the
// requests they average over.
func (s *sample) addSummary(sum metrics.Summary) {
	s.n += sum.N
	s.ok += int(math.Round(sum.Attainment * float64(sum.N)))
	served := float64(sum.N - sum.Unserved)
	s.served += sum.N - sum.Unserved
	b := sum.Breakdown
	s.stages[stageQueue] += float64(b.Queueing) * served
	s.stages[stageSearch] += float64(b.Search) * served
	s.stages[stageLLMWait] += float64(b.LLMWait) * served
	s.stages[stagePrefill] += float64(b.Prefill) * served
}

// addRecords takes what the summaries do not carry from the records:
// completions, served TTFTs after warmup, and GPU hit rates.
func (s *sample) addRecords(recs []workload.Request, warmup des.Time) {
	s.arrived += len(recs)
	for i := range recs {
		r := &recs[i]
		if r.Done > 0 {
			s.completed++
		}
		if r.FirstToken == 0 {
			continue
		}
		s.hitSum += r.HitRate
		s.hitN++
		if r.ArrivalAt >= warmup {
			s.ttft = append(s.ttft, ms(time.Duration(r.TTFT())))
		}
	}
}

// seal computes the sample's digest over the records and every
// simulated value it reports.
func (s *sample) seal(recs []workload.Request) {
	d := newDigest()
	d.records(recs)
	for _, v := range []float64{float64(s.n), float64(s.ok), s.goodput, s.rho, s.avgBatch,
		s.stages[0], s.stages[1], s.stages[2], s.stages[3]} {
		d.float(v)
	}
	for _, m := range s.extra {
		d.float(m.value)
	}
	s.digest = d.sum()
}
