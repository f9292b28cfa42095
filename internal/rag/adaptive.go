package rag

import (
	"vectorliterag/internal/adapt"
	"vectorliterag/internal/update"
)

// AdaptiveOptions configures an adaptive vLiteRAG run: the usual
// serving options (typically with a Drift trace and/or RateSchedule so
// there is something to adapt to) plus the controller's knobs.
type AdaptiveOptions struct {
	Options
	// Monitor holds the drift-detection thresholds. A zero
	// WindowRequests derives a window of roughly ten seconds of traffic
	// at the nominal rate (min 100 requests) — the paper's "every few
	// thousand requests" scaled to this substrate's run lengths.
	Monitor update.MonitorConfig
}

// AdaptiveResult extends a run result with the control-plane record:
// every rebuild the controller executed and the expectation it started
// from. Rho reports the *initial* plan's coverage; each rebuild record
// carries the coverage it moved to.
type AdaptiveResult struct {
	Result
	// ExpectedHitRate is the model-expected mean hit rate of the initial
	// plan (the monitor's first anchor).
	ExpectedHitRate float64
	Rebuilds        []adapt.RebuildRecord
	// Pending is a rebuild still in flight when the clock stopped (its
	// remaining stages lay past duration+drain), or nil. Shards it left
	// refreshing explain a hit-rate dip at the tail of the timeline.
	Pending *adapt.RebuildRecord
	// Observed is how many completed requests fed the monitor.
	Observed int
}

// RunAdaptive executes one adaptive evaluation point: a vLiteRAG
// pipeline with the adapt.Controller attached to the collector path,
// serving a (typically non-stationary) workload in virtual time. When
// drift trips the monitor, the controller re-profiles the live
// distribution, re-runs Algorithm 1, re-splits, reloads shards in the
// background (mid-reload queries divert to the CPU path), and swaps the
// new plan in — all as simulated events, inside the same run.
//
// The static counterpart for an A/B under the identical trace is plain
// Run with the same Options (same Seed, Drift, RateSchedule): its plan
// is decided once, pre-drift, and never changes.
func RunAdaptive(opts AdaptiveOptions) (*AdaptiveResult, error) {
	if opts.Kind == "" {
		opts.Kind = VLiteRAG
	}
	spec := single(opts.Options)
	spec.adapt, spec.monitor = true, opts.Monitor
	run, err := runSystem(spec)
	if err != nil {
		return nil, err
	}
	return &AdaptiveResult{
		Result:          run.Result,
		ExpectedHitRate: run.expected,
		Rebuilds:        run.ctrl.Rebuilds(),
		Pending:         run.ctrl.Pending(),
		Observed:        run.ctrl.Observed(),
	}, nil
}
