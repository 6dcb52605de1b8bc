package experiments

import (
	"reflect"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
	"gmsim/internal/trace"
)

// The worker pool's contract is that parallel execution changes nothing:
// every experiment entry point must produce bit-identical values at any
// worker count. These tests pin that contract. Float comparisons are exact
// (==, via reflect.DeepEqual) on purpose — "close" would hide
// nondeterminism.

const detIters = 20

// withWorkers runs f with the runner default pool width set to w.
func withWorkers(t *testing.T, w int, f func()) {
	t.Helper()
	old := runner.Default()
	runner.SetDefault(w)
	defer runner.SetDefault(old)
	f()
}

// TestMeasureBarrierRepeatable: the same Spec measured twice serially gives
// bit-identical results (the simulation itself is deterministic).
func TestMeasureBarrierRepeatable(t *testing.T) {
	spec := Spec{Cluster: cluster.DefaultConfig(4), Level: NICLevel, Alg: mcp.PE, Iters: detIters}
	a := MeasureBarrier(spec)
	b := MeasureBarrier(spec)
	if a.MeanMicros != b.MeanMicros || a.Barriers != b.Barriers {
		t.Fatalf("two serial runs differ: %+v vs %+v", a, b)
	}
}

// TestConcurrentMeasurementsIdentical: the same Spec measured many times
// concurrently from the worker pool gives the same bits as a serial run.
func TestConcurrentMeasurementsIdentical(t *testing.T) {
	spec := Spec{Cluster: cluster.DefaultConfig(4), Level: NICLevel, Alg: mcp.GB, Dim: 2, Iters: detIters}
	want := MeasureBarrier(spec)
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = spec
	}
	results := runner.Map(8, specs, MeasureBarrier)
	for i, r := range results {
		if r.MeanMicros != want.MeanMicros || r.Barriers != want.Barriers {
			t.Fatalf("concurrent run %d differs: got %+v, want %+v", i, r, want)
		}
	}
}

// TestParallelMatchesSerial runs every runner-backed experiment entry point
// at 1 worker and at 8 workers and requires bit-identical output.
func TestParallelMatchesSerial(t *testing.T) {
	sizes := []int{2, 4}
	cases := []struct {
		name string
		run  func() any
	}{
		{"Figure5Latencies", func() any {
			return Figure5Latencies(cluster.DefaultConfig, sizes, detIters)
		}},
		{"OptimalGBDim", func() any {
			d, l := OptimalGBDim(cluster.DefaultConfig(4), NICLevel, detIters)
			return []any{d, l}
		}},
		{"GBDimSweep", func() any {
			return GBDimSweep(cluster.DefaultConfig(4), HostLevel, detIters, false)
		}},
		{"ScaleSweep", func() any {
			return ScaleSweep(sizes, detIters)
		}},
		{"LayerOverheadSweep", func() any {
			return LayerOverheadSweep(2, []float64{0, 10}, detIters)
		}},
		{"GranularitySweep", func() any {
			return GranularitySweep(2, []float64{50, 250}, 0.2, detIters)
		}},
		{"CollectiveComparison", func() any {
			return CollectiveComparison(cluster.DefaultConfig, []int{2, 4}, 2, detIters)
		}},
		{"MPIBarrierComparison", func() any {
			return MPIBarrierComparison(sizes, detIters)
		}},
		{"ReliabilitySweep", func() any {
			// A nontrivial base plan: loss rides on top of corruption,
			// duplication, a link flap and a NIC stall. Every point's
			// cluster derives its own per-link streams from the shared
			// plan, so parallel workers must reproduce the serial bits.
			base := &fault.Plan{
				Seed: 1234,
				Corrupt: []fault.CorruptRule{
					{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.004},
					{Links: fault.NodeLinks(1), Window: fault.Always, Rate: 0.01, Truncate: true},
				},
				Duplicate: []fault.DupRule{{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005}},
				Flaps: []fault.Flap{{
					Links:  fault.NodeLinks(2),
					DownAt: sim.FromMicros(400),
					UpAt:   sim.FromMicros(600),
				}},
				Stalls: []fault.Stall{{Node: 3, At: sim.FromMicros(900), For: sim.FromMicros(80)}},
			}
			return ReliabilitySweep(4, []float64{0, 1, 2}, 2, detIters, base)
		}},
		{"FlapRecovery", func() any {
			return FlapRecovery(4, 2, sim.FromMicros(150), 99)
		}},
		{"TopoScaleSweep", func() any {
			return TopoScaleSweep([]topo.Kind{topo.Single, topo.Star, topo.Clos2}, []int{4, 8}, 6, detIters, nil, false, 1)
		}},
		{"CrossSwitchContention", func() any {
			return CrossSwitchContention(6, []int{1, 2}, 1024, detIters)
		}},
		{"MeasureBarrierObserved", func() any {
			// Recorders attached: the traced measurement must stay
			// bit-identical under the worker pool too. Project the
			// observation onto comparable values (the recorder itself
			// holds simulator internals DeepEqual cannot compare).
			specs := []Spec{
				{Cluster: cluster.DefaultConfig(4), Level: NICLevel, Alg: mcp.PE, Iters: detIters},
				{Cluster: cluster.DefaultConfig(4), Level: NICLevel, Alg: mcp.GB, Dim: 2, Iters: detIters},
				{Cluster: cluster.DefaultConfig(4), Level: HostLevel, Alg: mcp.PE, Iters: detIters},
			}
			type row struct {
				Result
				Decomp  trace.Decomposition
				Metrics string
				Spans   int
			}
			return runner.Map(0, specs, func(s Spec) row {
				o := MeasureBarrierObserved(s)
				return row{o.Result, o.Decomp, o.Metrics.Dump(false), o.Rec.Phases().Len()}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var serial, parallel any
			withWorkers(t, 1, func() { serial = tc.run() })
			withWorkers(t, 8, func() { parallel = tc.run() })
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("parallel output differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}
