package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/brownout"
	"vectorliterag/internal/des"
	"vectorliterag/internal/serve"
)

// OverloadOptions configures overload control on a serving run: bounded
// admission queues on the FairScheduler and, optionally, the closed-
// loop brownout controller that sheds retrieval quality when a stage
// overruns its latency budget. Nil (the default everywhere) keeps every
// path byte-identical to a run without overload control.
type OverloadOptions struct {
	// QueueCap bounds each tenant's admission queue: an arrival to a
	// full queue is rejected immediately (surfacing as an unserved
	// request) instead of queueing toward a guaranteed SLO violation.
	// Zero selects the default 64; negative values are rejected.
	QueueCap int
	// Brownout enables the knob-shedding controller. Without it the run
	// is the reject-only arm: bounded queues, no quality shedding.
	Brownout bool
	// RetrievalBudget overrides the retrieval-stage latency budget
	// (default: each tenant's own SLOSearch). Measured arrival →
	// SearchDone, queueing included.
	RetrievalBudget time.Duration
	// GenerationBudget overrides the generation-stage budget (default:
	// the run's SLOGen). Measured SearchDone → FirstToken.
	GenerationBudget time.Duration
	// Window is the controller's monitoring window in completed
	// requests (default 64).
	Window int
	// MaxShed caps every stamped shed fraction (default 0.6).
	MaxShed float64
}

// normalize validates and fills defaults.
func (o *OverloadOptions) normalize() error {
	if o.QueueCap < 0 {
		return fmt.Errorf("rag: negative overload QueueCap %d", o.QueueCap)
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.RetrievalBudget < 0 || o.GenerationBudget < 0 {
		return fmt.Errorf("rag: negative overload stage budget %v/%v",
			o.RetrievalBudget, o.GenerationBudget)
	}
	if o.Window < 0 {
		return fmt.Errorf("rag: negative overload Window %d", o.Window)
	}
	if o.MaxShed < 0 || o.MaxShed >= 1 {
		return fmt.Errorf("rag: overload MaxShed %v outside [0,1)", o.MaxShed)
	}
	return nil
}

// OverloadReport is the overload-control addendum of a run (nil when
// Overload was not configured).
type OverloadReport struct {
	// QueueCap echoes the effective per-tenant admission bound.
	QueueCap int
	// Rejected counts admissions refused per tenant; RejectedTotal sums
	// them (across replicas in a sharded run).
	Rejected      []int
	RejectedTotal int
	// Brownout echoes whether the shedding controller ran. The
	// remaining fields are zero without it.
	Brownout bool
	// MaxLevel is the deepest ladder level reached (max over replicas).
	MaxLevel int
	// TimeInBrownout is virtual time spent above level 0 (max over
	// replicas); BrownoutShare normalizes it by the run's full span.
	TimeInBrownout time.Duration
	BrownoutShare  float64
	// StampedRequests counts dispatches that carried a non-zero rung;
	// MeanShed is their mean probe-shed fraction (stamped-weighted
	// across replicas) — the recall give-up proxy.
	StampedRequests int
	MeanShed        float64
}

// overloadRig is one pipeline's overload-control wiring: the admission
// bound lives on the (possibly pre-existing) FairScheduler, the
// optional controller observes completions and stamps dispatches.
type overloadRig struct {
	sched *serve.FairScheduler
	ctrl  *brownout.Controller
}

// rigOverload installs overload control on a scheduler: the admission
// bound with its rejection sink, and — when Brownout is set — the
// controller over the given per-tenant stage budgets and tier biases,
// hooked into the scheduler's dispatch path. The caller must tee
// Observe into the completion path (before the request is recycled or
// shipped away).
func rigOverload(sim *des.Sim, o *OverloadOptions, sched *serve.FairScheduler,
	budgets []brownout.StageBudget, bias []float64, reject serve.Sink) (*overloadRig, error) {
	sched.SetAdmission(o.QueueCap, reject)
	rig := &overloadRig{sched: sched}
	if o.Brownout {
		ctrl, err := brownout.NewController(sim, brownout.Config{
			Window:  o.Window,
			MaxShed: o.MaxShed,
		}, budgets, bias)
		if err != nil {
			return nil, err
		}
		sched.SetOnDispatch(ctrl.Stamp)
		rig.ctrl = ctrl
	}
	return rig, nil
}

// teeObserve builds a terminal sink: finalize the records, let the
// rig's brownout controller (when it runs one) and then any further
// observers see the completed request, and only then hand it to the
// sink that gives it away.
func teeObserve(rig *overloadRig, record []serve.Sink, release serve.Sink, observers ...serve.Sink) serve.Sink {
	sinks := append([]serve.Sink(nil), record...)
	if rig != nil && rig.ctrl != nil {
		sinks = append(sinks, rig.ctrl.Observe)
	}
	sinks = append(sinks, observers...)
	return serve.Tee(append(sinks, release)...)
}

// report assembles the rig's outcome. end is the virtual clock at run
// end; span the full run length the brownout share normalizes by.
func (r *overloadRig) report(o *OverloadOptions, tenants int, end des.Time, span time.Duration) *OverloadReport {
	rep := &OverloadReport{
		QueueCap: o.QueueCap,
		Brownout: o.Brownout,
		Rejected: make([]int, tenants),
	}
	for t := 0; t < tenants; t++ {
		rep.Rejected[t] = r.sched.Rejected(t)
		rep.RejectedTotal += rep.Rejected[t]
	}
	if r.ctrl != nil {
		rep.MaxLevel = r.ctrl.MaxLevel()
		rep.TimeInBrownout = r.ctrl.TimeInBrownout(end)
		if span > 0 {
			rep.BrownoutShare = float64(rep.TimeInBrownout) / float64(span)
		}
		rep.StampedRequests = r.ctrl.StampedRequests()
		rep.MeanShed = r.ctrl.MeanShed()
	}
	return rep
}

// mergeOverloadReports folds the replicas' rigs into one report:
// rejected counts sum, the brownout depth and dwell report the worst
// replica, and the mean shed weights each replica by its stamped
// requests. A single rig reports its own outcome.
func mergeOverloadReports(o *OverloadOptions, nodes []*replicaNode, tenants int, end des.Time, span time.Duration) *OverloadReport {
	if len(nodes) == 1 {
		return nodes[0].rig.report(o, tenants, end, span)
	}
	rep := &OverloadReport{
		QueueCap: o.QueueCap,
		Brownout: o.Brownout,
		Rejected: make([]int, tenants),
	}
	var shedSum float64
	for _, n := range nodes {
		rr := n.rig.report(o, tenants, end, span)
		for t := range rep.Rejected {
			rep.Rejected[t] += rr.Rejected[t]
		}
		rep.RejectedTotal += rr.RejectedTotal
		if rr.MaxLevel > rep.MaxLevel {
			rep.MaxLevel = rr.MaxLevel
		}
		if rr.TimeInBrownout > rep.TimeInBrownout {
			rep.TimeInBrownout = rr.TimeInBrownout
			rep.BrownoutShare = rr.BrownoutShare
		}
		rep.StampedRequests += rr.StampedRequests
		shedSum += rr.MeanShed * float64(rr.StampedRequests)
	}
	if rep.StampedRequests > 0 {
		rep.MeanShed = shedSum / float64(rep.StampedRequests)
	}
	return rep
}

// budget is one source's stage budget: the configured overrides, else
// the source's own stage SLOs.
func (o *OverloadOptions) budget(search, gen time.Duration) brownout.StageBudget {
	b := brownout.StageBudget{Retrieval: search, Generation: gen}
	if o.RetrievalBudget > 0 {
		b.Retrieval = o.RetrievalBudget
	}
	if o.GenerationBudget > 0 {
		b.Generation = o.GenerationBudget
	}
	return b
}
