package experiments

import (
	"fmt"
	"math"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

const obsIters = 20

// relErr returns |pred-meas|/meas.
func relErr(meas, pred float64) float64 {
	return math.Abs(pred-meas) / meas
}

// TestModelConformance sweeps the paper's Section 6 matrix — n in {4,8,16},
// pairwise exchange and gather-and-broadcast (dims 2-4) at both levels —
// and checks three things per cell:
//
//  1. conservation: the traced per-phase decomposition partitions the
//     timed window bit-exactly (simulated time is discrete; no tolerance);
//  2. attribution: NIC-level barriers never charge the host data path
//     (HostSend/HostRecv identically zero, the paper's Figure 1 claim);
//     host-level barriers never touch the NIC-barrier host phases;
//  3. prediction: the Section 2.2 model matches the measured mean within
//     the stated tolerance (host Eq. 1: 2%; NIC Eq. 2: 8%; the GB
//     extension with its coarser serialization term: 15%).
func TestModelConformance(t *testing.T) {
	b := model.PaperEstimate43()
	gb := model.GBTerms43()
	type cell struct {
		level Level
		alg   mcp.BarrierAlg
		dim   int
	}
	for _, n := range []int{4, 8, 16} {
		cells := []cell{
			{NICLevel, mcp.PE, 0},
			{HostLevel, mcp.PE, 0},
			{HostLevel, mcp.GB, 2},
		}
		for dim := 2; dim <= 4 && dim <= n-1; dim++ {
			cells = append(cells, cell{NICLevel, mcp.GB, dim})
		}
		for _, c := range cells {
			name := fmt.Sprintf("n%d/%s-%s", n, c.level, c.alg)
			if c.alg == mcp.GB {
				name += fmt.Sprintf("-dim%d", c.dim)
			}
			t.Run(name, func(t *testing.T) {
				obs := MeasureBarrierObserved(Spec{
					Cluster: cluster.DefaultConfig(n), Level: c.level,
					Alg: c.alg, Dim: c.dim, Iters: obsIters,
				})
				d := obs.Decomp

				// 1. Conservation, bit-exact.
				if d.CriticalSum() != d.Elapsed() {
					t.Fatalf("decomposition does not partition the window: sum=%v elapsed=%v\n%s",
						d.CriticalSum(), d.Elapsed(), d.Table())
				}
				if d.Start != obs.Start || d.End != obs.End {
					t.Fatalf("decomposed window [%v,%v] != measured [%v,%v]",
						d.Start, d.End, obs.Start, obs.End)
				}

				// 2. Attribution.
				tot := obs.Rec.Phases().Totals()
				if c.level == NICLevel {
					if tot[phase.HostSend] != 0 || tot[phase.HostRecv] != 0 {
						t.Fatalf("NIC barrier charged host data path: HostSend=%v HostRecv=%v",
							tot[phase.HostSend], tot[phase.HostRecv])
					}
					if tot[phase.HostPost] == 0 || tot[phase.HostDone] == 0 {
						t.Fatalf("NIC barrier missing token-post/completion host work: %v", tot)
					}
				} else {
					if tot[phase.HostPost] != 0 || tot[phase.HostDone] != 0 {
						t.Fatalf("host barrier charged NIC-barrier host phases: HostPost=%v HostDone=%v",
							tot[phase.HostPost], tot[phase.HostDone])
					}
					if tot[phase.HostSend] == 0 || tot[phase.HostRecv] == 0 {
						t.Fatalf("host barrier recorded no host data-path work: %v", tot)
					}
				}
				if d.Critical[phase.NICProc] == 0 || tot[phase.Wire] == 0 {
					t.Fatalf("structurally empty decomposition:\n%s", d.Table())
				}

				// 3. Model prediction.
				var pred, tol float64
				switch {
				case c.level == HostLevel && c.alg == mcp.PE:
					pred, tol = b.HostBarrier(n), 0.02
				case c.level == NICLevel && c.alg == mcp.PE:
					pred, tol = b.NICBarrier(n), 0.08
				case c.level == NICLevel && c.alg == mcp.GB:
					pred, tol = b.NICBarrierGB(n, c.dim, gb), 0.15
				default:
					return // host GB: structural checks only, no Section 2.2 equation
				}
				if e := relErr(obs.MeanMicros, pred); e > tol {
					t.Fatalf("model off by %.1f%% (> %.0f%%): measured %.2fus, predicted %.2fus",
						100*e, 100*tol, obs.MeanMicros, pred)
				}
			})
		}
	}
}

// TestModelConformance72 spot-checks the LANai 7.2 calibration: Equation 2
// with the halved firmware terms still lands within tolerance.
func TestModelConformance72(t *testing.T) {
	b := model.PaperEstimate72()
	obs := MeasureBarrierObserved(Spec{
		Cluster: cluster.LANai72Config(8), Level: NICLevel, Alg: mcp.PE, Iters: obsIters,
	})
	if d := obs.Decomp; d.CriticalSum() != d.Elapsed() {
		t.Fatalf("conservation broken: sum=%v elapsed=%v", d.CriticalSum(), d.Elapsed())
	}
	if e := relErr(obs.MeanMicros, b.NICBarrier(8)); e > 0.08 {
		t.Fatalf("LANai 7.2 model off by %.1f%%: measured %.2fus, predicted %.2fus",
			100*e, obs.MeanMicros, b.NICBarrier(8))
	}
}

// Pre-instrumentation timings, captured at Iters=60 on the commit before
// the tracer touched host, firmware, MCP and DMA code paths. The overhead
// guard pins that instrumentation with no recorder attached — and with
// one attached — reproduces these bits exactly.
var preInstrumentationPins = []struct {
	name       string
	spec       Spec
	start, end sim.Time
}{
	{"nic-pe-16-l43", Spec{Cluster: cluster.DefaultConfig(16), Level: NICLevel, Alg: mcp.PE, Iters: 60}, 546265, 6614245},
	{"nic-gb2-16-l43", Spec{Cluster: cluster.DefaultConfig(16), Level: NICLevel, Alg: mcp.GB, Dim: 2, Iters: 60}, 828170, 11230250},
	{"host-pe-16-l43", Spec{Cluster: cluster.DefaultConfig(16), Level: HostLevel, Alg: mcp.PE, Iters: 60}, 950000, 11862800},
	{"nic-pe-8-l72", Spec{Cluster: cluster.LANai72Config(8), Level: NICLevel, Alg: mcp.PE, Iters: 60}, 266165, 3164945},
}

// TestTraceOverheadZero: recording is passive. An untraced run must be
// bit-identical in simulated time to the pre-instrumentation pins, and a
// fully traced run must produce the same bits again — the recorder
// observes the schedule, never perturbs it.
func TestTraceOverheadZero(t *testing.T) {
	for _, pin := range preInstrumentationPins {
		t.Run(pin.name, func(t *testing.T) {
			plain := MeasureBarrier(pin.spec)
			if plain.Start != pin.start || plain.End != pin.end {
				t.Fatalf("untraced run drifted from pre-instrumentation pin: start/end %d/%d, want %d/%d",
					plain.Start, plain.End, pin.start, pin.end)
			}
			obs := MeasureBarrierObserved(pin.spec)
			if obs.Start != plain.Start || obs.End != plain.End || obs.MeanMicros != plain.MeanMicros {
				t.Fatalf("traced run perturbed the simulation: start/end/mean %d/%d/%v vs %d/%d/%v",
					obs.Start, obs.End, obs.MeanMicros, plain.Start, plain.End, plain.MeanMicros)
			}
			if obs.Rec.Phases().Len() == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// TestObservedMatchesPlainPastBufferCap: MeasureBarrier and
// MeasureBarrierObserved share one barrier loop, so the receive-buffer cap
// above 1024 nodes applies to both and a multi-switch cluster past it
// times identically with and without the recorder.
func TestObservedMatchesPlainPastBufferCap(t *testing.T) {
	if testing.Short() {
		t.Skip("1056-node run; skipped in -short mode")
	}
	spec := Spec{Cluster: TopoConfig(topo.Clos2, 1056, 64), Level: NICLevel, Alg: mcp.PE, Warmup: 1, Iters: 1}
	plain := MeasureBarrier(spec)
	obs := MeasureBarrierObserved(spec)
	if obs.Start != plain.Start || obs.End != plain.End || obs.MeanMicros != plain.MeanMicros {
		t.Fatalf("observed run differs from plain: start/end/mean %d/%d/%v vs %d/%d/%v",
			obs.Start, obs.End, obs.MeanMicros, plain.Start, plain.End, plain.MeanMicros)
	}
}
