package service

import (
	"bytes"
	"fmt"

	"gmsim/internal/experiments"
	"gmsim/internal/phase"
	"gmsim/internal/stats"
)

// PhaseShare is one row of a result's Section 2.2 decomposition: the
// phase's share of rank 0's critical path over the timed window, plus the
// cluster-wide busy total, both in microseconds.
type PhaseShare struct {
	Phase      string  `json:"phase"`
	CriticalUs float64 `json:"critical_us"`
	TotalUs    float64 `json:"total_us,omitempty"`
}

// Result is the JSON body a completed run serves. For a given canonical
// spec it is byte-deterministic: the simulation is bit-reproducible and
// the encoding is fixed-order, so a cached Result is indistinguishable
// from a fresh one.
type Result struct {
	// Spec is the canonical spec; Hash is its content address (the cache
	// key).
	Spec Spec   `json:"spec"`
	Hash string `json:"hash"`
	// MeanMicros is the mean barrier latency over the timed iterations at
	// rank 0 — the paper's headline metric.
	MeanMicros float64 `json:"mean_us"`
	// Barriers and Retrans are cluster-wide firmware counters.
	Barriers int64 `json:"barriers"`
	Retrans  int64 `json:"retrans"`
	// StartNs and EndNs bound the timed window in simulated nanoseconds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Decomposition is the Section 2.2 phase breakdown of the timed window
	// (serial, non-fail-stop runs only; the trace endpoint serves the full
	// Perfetto form). IdleUs is the unattributed remainder; the rows plus
	// idle sum exactly to the window.
	Decomposition []PhaseShare `json:"decomposition,omitempty"`
	IdleUs        float64      `json:"idle_us,omitempty"`
	// Scenario is the canonical chaos-fleet summary for fail-stop plans:
	// dead sets, survivor agreement, repair work.
	Scenario string `json:"scenario,omitempty"`
	// Traced reports whether a Perfetto trace was captured for this run.
	Traced bool `json:"traced"`
}

// Outcome is everything one executed spec produces: the result row, the
// Chrome/Perfetto trace JSON when the run was traced, and the cluster's
// metrics registry when one was collected.
type Outcome struct {
	Result  Result
	Trace   []byte
	Metrics *stats.Registry
}

// Execute runs one canonical spec to completion and returns its outcome,
// in one of two shapes:
//
//   - fail-stop plans (crash, partition) run as checked scenarios —
//     survivors complete degraded and the summary is part of the result;
//   - everything else is a measurement. On the serial engine the
//     full-stack recorder is attached, yielding the decomposition, the
//     Perfetto trace and the metrics registry; the partitioned engine
//     cannot record, so its result carries the timings only. Timing is
//     bit-identical in all cases to the equivalent one-shot CLI run (the
//     recorder is passive; the overhead-guard test pins this).
//
// Execute assumes a canonicalized spec; Canonicalize beforehand.
func Execute(s Spec) (Outcome, error) {
	hash, err := s.Hash()
	if err != nil {
		return Outcome{}, err
	}
	espec, err := s.Experiment()
	if err != nil {
		return Outcome{}, err
	}
	res := Result{Spec: s, Hash: hash}

	if FailStop(s.FaultPlan) {
		sum := experiments.RunScenario(experiments.Scenario{Name: "svc-" + hash[:12], Spec: espec})
		res.MeanMicros = sum.MeanMicros
		res.Barriers = sum.Barriers
		res.Retrans = sum.Retrans
		res.Scenario = sum.String()
		return Outcome{Result: res}, nil
	}

	obs := experiments.MeasureBarrierObserved(espec)
	res.MeanMicros = obs.MeanMicros
	res.Barriers = obs.Barriers
	res.Retrans = obs.Retrans
	res.StartNs = int64(obs.Start)
	res.EndNs = int64(obs.End)
	if obs.Rec == nil {
		return Outcome{Result: res}, nil
	}
	res.Traced = true
	for ph := phase.Phase(0); ph < phase.NumPhases; ph++ {
		crit := obs.Decomp.Critical[ph]
		tot := obs.Decomp.Totals[ph]
		if crit == 0 && tot == 0 {
			continue
		}
		res.Decomposition = append(res.Decomposition, PhaseShare{
			Phase:      ph.String(),
			CriticalUs: crit.Micros(),
			TotalUs:    tot.Micros(),
		})
	}
	res.IdleUs = obs.Decomp.Idle().Micros()

	var buf bytes.Buffer
	if err := obs.Rec.WriteChrome(&buf); err != nil {
		return Outcome{}, fmt.Errorf("service: trace export: %w", err)
	}
	return Outcome{Result: res, Trace: buf.Bytes(), Metrics: obs.Metrics}, nil
}
