package experiments

import (
	"gmsim/internal/stats"
	"gmsim/internal/trace"
)

// Observed is a barrier measurement with full-stack observability attached:
// the plain Result, plus the Section 2.2 decomposition of the timed window
// at rank 0, the cluster's always-on metrics, and the recorder itself (for
// Chrome export or span-level inspection).
type Observed struct {
	Result
	// Decomp attributes the timed window [Result.Start, Result.End) at
	// rank 0 to the paper's phases. Its Critical partition sums bit-exactly
	// to End-Start.
	Decomp trace.Decomposition
	// Metrics holds the cluster's counter registry after the run.
	Metrics *stats.Registry
	// Rec is the full-stack recorder; spans and fabric events cover the
	// timed iterations only (recording is gated around them). Nil on the
	// partitioned engine.
	Rec *trace.Recorder
}

// MeasureBarrierObserved is MeasureBarrier with a full-stack trace
// recorder attached. Recording is enabled only around the timed
// iterations at rank 0, so the span set covers exactly the decomposed
// window. Simulated time is identical to MeasureBarrier — the recorder is
// passive — which the overhead-guard test pins bit-exactly. The
// partitioned engine cannot record: there Rec is nil and Decomp zero, and
// the result is MeasureBarrier's.
func MeasureBarrierObserved(spec Spec) Observed {
	r := runBarriers(spec.withDefaults(5, DefaultIters), true)
	obs := Observed{Result: r.result(), Metrics: r.cl.Metrics(), Rec: r.rec}
	if r.rec != nil {
		obs.Decomp = r.rec.Decompose(0, r.start, r.end)
	}
	return obs
}
