// Package experiments reproduces the paper's evaluation: one function per
// table/figure, returning structured rows that cmd/barrierbench prints,
// bench_test.go re-runs, and the calibration test checks against the
// paper's measured numbers. See DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"
	"reflect"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
	"gmsim/internal/trace"
)

// Level places the barrier algorithm at the NIC or at the host.
type Level int

const (
	// NICLevel runs the barrier inside the NIC firmware (the paper's
	// contribution).
	NICLevel Level = iota
	// HostLevel runs it at the host over plain GM sends/receives
	// (the baseline).
	HostLevel
)

func (l Level) String() string {
	if l == NICLevel {
		return "NIC"
	}
	return "host"
}

// Spec describes one barrier latency measurement.
type Spec struct {
	// Cluster is the testbed; Cluster.Nodes processes participate, one
	// per node, all on port 2 (GM reserves low port numbers).
	Cluster cluster.Config
	Level   Level
	Alg     mcp.BarrierAlg
	// Dim is the GB tree dimension (ignored for PE).
	Dim int
	// TopoAware maps the GB tree onto the switch topology (see
	// core.GBTreeMapped): intra-switch subtrees with one trunk crossing
	// per leaf switch. Ignored for PE. On a single crossbar the mapped
	// tree equals the flat one, so the flag changes nothing.
	TopoAware bool
	// Warmup barriers run before timing starts; Iters barriers are timed.
	Warmup, Iters int
}

// DefaultIters is the timed-iteration count used by the harness. The paper
// ran 100,000 consecutive barriers; the simulation is deterministic, so
// far fewer iterations give a converged steady-state average (the -iters
// flag of cmd/barrierbench raises it).
const DefaultIters = 200

// Result is one measurement.
type Result struct {
	Spec Spec
	// MeanMicros is the average latency of one barrier in microseconds,
	// measured at rank 0 over the timed iterations — the paper's
	// methodology ("we ran 100,000 barriers consecutively and took the
	// average latency").
	MeanMicros float64
	// Barriers counts completions observed NIC-side across the cluster
	// (sanity: Nodes × (Warmup+Iters) for NIC-level runs).
	Barriers int64
	// Retrans counts frames re-sent across the cluster (go-back-N data
	// retransmissions plus reliable-barrier resends) — the recovery work
	// the fault plan forced.
	Retrans int64
	// Start and End bound the timed iterations at rank 0, in absolute
	// simulated time. The reliability experiments use them to aim fault
	// windows at the middle of a measured barrier.
	Start, End sim.Time
}

// MeasureBarrier runs the measurement described by spec.
func MeasureBarrier(spec Spec) Result {
	return runBarriers(spec.withDefaults(5, DefaultIters), false).result()
}

// withDefaults fills a zero Warmup or Iters.
func (s Spec) withDefaults(warmup, iters int) Spec {
	if s.Warmup == 0 {
		s.Warmup = warmup
	}
	if s.Iters == 0 {
		s.Iters = iters
	}
	return s
}

// barrierRun is the raw outcome of runBarriers, which MeasureBarrier,
// MeasureBarrierObserved and RunScenario fold into their result shapes.
type barrierRun struct {
	spec Spec
	cl   *cluster.Cluster
	// rec is the full-stack recorder of an observed serial run, else nil.
	rec *trace.Recorder
	// start and end bound rank 0's timed iterations; slowest is the
	// longest single one.
	start, end, slowest sim.Time
	// dead is each rank's final dead set; finished marks the ranks that
	// completed every iteration (ranks on crashed nodes never do).
	dead     [][]network.NodeID
	finished []bool
	// stats sums every NIC's firmware counters.
	stats mcp.Stats
}

// result folds a run into the plain measurement row.
func (r barrierRun) result() Result {
	return Result{
		Spec:       r.spec,
		MeanMicros: (r.end - r.start).Micros() / float64(r.spec.Iters),
		Barriers:   r.stats.BarrierCompleted,
		Retrans:    r.stats.Retransmissions + r.stats.BarrierResends,
		Start:      r.start,
		End:        r.end,
	}
}

// runBarriers is the paper's measurement procedure (Section 6), the one
// barrier loop under every measurement entry point: each rank runs
// spec.Warmup+spec.Iters consecutive barriers over the full group and rank
// 0 times the last spec.Iters. With observe set, a full-stack recorder is
// attached and enabled only around rank 0's timed window; the partitioned
// engine cannot record, so there the run stays untraced.
func runBarriers(spec Spec, observe bool) barrierRun {
	n := spec.Cluster.Nodes
	cl := cluster.New(spec.Cluster)
	r := barrierRun{
		spec:     spec,
		cl:       cl,
		dead:     make([][]network.NodeID, n),
		finished: make([]bool, n),
	}
	if observe && cl.Group() == nil {
		r.rec = trace.Attach(cl)
		r.rec.Disable() // warmup is not recorded
	}
	g := core.UniformGroup(n, 2)
	var leafOf []int
	if spec.TopoAware {
		leafOf = cl.Topology().LeafOf()
	}
	// Receive-buffer provisioning scales with the cluster so the
	// paper-scale runs never stall on buffers, but past 1024 nodes the
	// linear rule would post tens of thousands of tokens per NIC
	// (gigabytes across an 8192-node fabric) for a barrier that keeps at
	// most ~2(log n + dim) frames outstanding per node. The cap applies
	// only above 1024 nodes, so every pinned timing at paper and
	// 1024-node scale keeps its historical buffer count.
	bufs := 4*n + 16
	if n > 1024 {
		bufs = 256
	}
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		comm := openComm(cl, p, bufs)
		var dead []network.NodeID
		one := func() {
			if spec.Level == NICLevel {
				pb, err := comm.StartBarrierMapped(p, spec.Alg, g, rank, spec.Dim, leafOf)
				must(err)
				pb.Wait(p)
				dead = pb.Dead()
			} else {
				must(comm.HostBarrierMapped(p, spec.Alg, g, rank, spec.Dim, leafOf))
			}
		}
		for i := 0; i < spec.Warmup; i++ {
			one()
		}
		if rank == 0 {
			r.start = p.Now()
			if r.rec != nil {
				r.rec.Enable()
			}
		}
		for i := 0; i < spec.Iters; i++ {
			before := p.Now()
			one()
			if d := p.Now() - before; rank == 0 && d > r.slowest {
				r.slowest = d
			}
		}
		if rank == 0 {
			r.end = p.Now()
			if r.rec != nil {
				r.rec.Disable()
			}
		}
		r.dead[rank] = dead
		r.finished[rank] = true
	})
	cl.Run()

	sum := reflect.ValueOf(&r.stats).Elem()
	for i := 0; i < n; i++ {
		st := reflect.ValueOf(cl.MCP(i).Stats())
		for f := 0; f < st.NumField(); f++ {
			sum.Field(f).SetInt(sum.Field(f).Int() + st.Field(f).Int())
		}
	}
	return r
}

// openComm opens GM port 2 on the process's own NIC and wraps it in a Comm
// posting bufs receive buffers. The harness only builds valid testbeds, so
// a failure is a bug and panics.
func openComm(cl *cluster.Cluster, p *host.Process, bufs int) *core.Comm {
	port, err := gm.Open(p, cl.MCP(int(p.Node())), 2)
	must(err)
	comm, err := core.NewComm(p, port, bufs)
	must(err)
	return comm
}

// MeasureBarriers measures every spec, fanning the independent simulations
// out over the runner pool. Results come back in input order and are
// bit-identical to calling MeasureBarrier serially (each measurement owns
// its Simulator; see internal/runner).
func MeasureBarriers(specs []Spec) []Result {
	return runner.Map(0, specs, MeasureBarrier)
}

// gbSweepSpecs builds the per-dimension GB specs for one cluster size, with
// the topology-aware tree mapping switched on or off.
func gbSweepSpecs(cfg cluster.Config, level Level, iters int, topoAware bool) []Spec {
	specs := make([]Spec, 0, cfg.Nodes-1)
	for dim := 1; dim <= cfg.Nodes-1; dim++ {
		specs = append(specs, Spec{Cluster: cfg, Level: level, Alg: mcp.GB, Dim: dim, TopoAware: topoAware, Iters: iters})
	}
	return specs
}

// bestGBDim folds a dimension sweep's results (dims 1..len) to the first
// dimension achieving the minimum latency — the same tie-break a serial
// in-order sweep applies.
func bestGBDim(results []Result) (int, float64) {
	bestDim, bestLat := 1, 0.0
	for i, r := range results {
		if i == 0 || r.MeanMicros < bestLat {
			bestDim, bestLat = i+1, r.MeanMicros
		}
	}
	return bestDim, bestLat
}

// OptimalGBDim sweeps the GB tree dimension from 1 to n-1 and returns the
// dimension with the lowest mean latency and that latency — the paper's
// methodology for every GB data point ("we ran the test for every
// dimension from 1 to N-1 ... the latencies reported are the minimum over
// all dimensions"). The per-dimension measurements run on the worker pool.
func OptimalGBDim(cfg cluster.Config, level Level, iters int) (int, float64) {
	return bestGBDim(MeasureBarriers(gbSweepSpecs(cfg, level, iters, false)))
}

// GBDimSweep returns the latency at every tree dimension (experiment E7).
// topoAware maps each tree onto the switch topology: on a multi-switch
// config the mapped sweep shows how much of each dimension's latency the
// flat heap layout was paying in trunk hops.
func GBDimSweep(cfg cluster.Config, level Level, iters int, topoAware bool) []DimPoint {
	results := MeasureBarriers(gbSweepSpecs(cfg, level, iters, topoAware))
	out := make([]DimPoint, 0, len(results))
	for i, r := range results {
		out = append(out, DimPoint{Dim: i + 1, Micros: r.MeanMicros})
	}
	return out
}

// DimPoint is one point of the GB dimension sweep.
type DimPoint struct {
	Dim    int
	Micros float64
}

// Figure5Row is one node-count row of Figure 5(a) or 5(c): the four
// variants' latencies in microseconds, with the GB tree dimensions that
// achieved them.
type Figure5Row struct {
	Nodes                        int
	NICPE, NICGB, HostPE, HostGB float64
	NICGBDim, HostGBDim          int
}

// Figure5Latencies produces the latency rows of Figure 5(a) (LANai 4.3,
// sizes 2..16) or Figure 5(c) (LANai 7.2, sizes 2..8), depending on the
// cluster-config constructor passed in.
// Figure5Latencies flattens the whole figure — every size's two PE
// measurements plus both full GB dimension sweeps — into one job list for
// the worker pool, then folds the in-order results back into rows.
func Figure5Latencies(mkCfg func(n int) cluster.Config, sizes []int, iters int) []Figure5Row {
	var specs []Spec
	offsets := make([]int, len(sizes))
	for i, n := range sizes {
		cfg := mkCfg(n)
		offsets[i] = len(specs)
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
		specs = append(specs, gbSweepSpecs(cfg, NICLevel, iters, false)...)
		specs = append(specs, gbSweepSpecs(cfg, HostLevel, iters, false)...)
	}
	results := MeasureBarriers(specs)

	rows := make([]Figure5Row, 0, len(sizes))
	for i, n := range sizes {
		o := offsets[i]
		dims := n - 1
		row := Figure5Row{
			Nodes:  n,
			NICPE:  results[o].MeanMicros,
			HostPE: results[o+1].MeanMicros,
		}
		row.NICGBDim, row.NICGB = bestGBDim(results[o+2 : o+2+dims])
		row.HostGBDim, row.HostGB = bestGBDim(results[o+2+dims : o+2+2*dims])
		rows = append(rows, row)
	}
	return rows
}

// FactorRow is one row of Figure 5(b)/(d): factor of improvement
// (host latency / NIC latency) per algorithm.
type FactorRow struct {
	Nodes  int
	PE, GB float64
}

// Factors derives Figure 5(b)/(d) from latency rows.
func Factors(rows []Figure5Row) []FactorRow {
	out := make([]FactorRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, FactorRow{
			Nodes: r.Nodes,
			PE:    r.HostPE / r.NICPE,
			GB:    r.HostGB / r.NICGB,
		})
	}
	return out
}

// LANai43Sizes and LANai72Sizes are the node counts the paper evaluates on
// each card ("Tests were performed for 2, 4 and 8 nodes using LANai 4.3
// and the LANai 7.2 NICs, and for 16 nodes using LANai 4.3 NICs").
var (
	LANai43Sizes = []int{2, 4, 8, 16}
	LANai72Sizes = []int{2, 4, 8}
)

// Figure5a returns the LANai 4.3 latency rows.
func Figure5a(iters int) []Figure5Row {
	return Figure5Latencies(cluster.DefaultConfig, LANai43Sizes, iters)
}

// Figure5b returns the LANai 4.3 factor rows.
func Figure5b(iters int) []FactorRow { return Factors(Figure5a(iters)) }

// Figure5c returns the LANai 7.2 latency rows.
func Figure5c(iters int) []Figure5Row {
	return Figure5Latencies(cluster.LANai72Config, LANai72Sizes, iters)
}

// Figure5d returns the LANai 7.2 factor rows.
func Figure5d(iters int) []FactorRow { return Factors(Figure5c(iters)) }

// PingPong measures the host-level one-way small-message latency
// (experiment E6, the Section 1 "as high as 30 µs" claim): two processes
// bounce a message back and forth; one-way latency is half the round trip.
func PingPong(cfg cluster.Config, bytes, iters int) float64 {
	cl := cluster.New(cfg)
	g := core.UniformGroup(2, 2)
	payload := make([]byte, bytes)
	var t0, t1 sim.Time
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		comm := openComm(cl, p, 32)
		if rank == 0 {
			// warmup
			for i := 0; i < 5; i++ {
				must(comm.Send(p, g[1], payload))
				mustRecv(comm.RecvFrom(p, g[1]))
			}
			t0 = p.Now()
			for i := 0; i < iters; i++ {
				must(comm.Send(p, g[1], payload))
				mustRecv(comm.RecvFrom(p, g[1]))
			}
			t1 = p.Now()
		} else {
			for i := 0; i < iters+5; i++ {
				mustRecv(comm.RecvFrom(p, g[0]))
				must(comm.Send(p, g[0], payload))
			}
		}
	})
	cl.Run()
	return (t1 - t0).Micros() / float64(iters) / 2
}

// LayerOverheadPoint is one point of experiment E8: factor of improvement
// as a function of added per-message layer overhead.
type LayerOverheadPoint struct {
	OverheadMicros float64
	NICPE, HostPE  float64
	Factor         float64
}

// LayerOverheadSweep reproduces the paper's Equation-3 prediction that the
// factor of improvement grows as a messaging layer (e.g. MPI) adds
// per-message host overhead.
func LayerOverheadSweep(n int, overheadsMicros []float64, iters int) []LayerOverheadPoint {
	specs := make([]Spec, 0, 2*len(overheadsMicros))
	for _, oh := range overheadsMicros {
		cfg := cluster.DefaultConfig(n)
		cfg.Host.LayerOverhead = sim.FromMicros(oh)
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
	}
	results := MeasureBarriers(specs)
	out := make([]LayerOverheadPoint, 0, len(overheadsMicros))
	for i, oh := range overheadsMicros {
		nic := results[2*i].MeanMicros
		hst := results[2*i+1].MeanMicros
		out = append(out, LayerOverheadPoint{
			OverheadMicros: oh, NICPE: nic, HostPE: hst, Factor: hst / nic,
		})
	}
	return out
}

// PaperHeadlines collects the paper's published numbers for the
// calibration check and EXPERIMENTS.md.
type PaperHeadlines struct {
	NICPE16L43   float64 // 102.14 µs
	FactorPE16   float64 // 1.78
	NICGB16L43   float64 // 152.27 µs
	FactorGB16   float64 // 1.46
	NICPE8L72    float64 // 49.25 µs
	HostPE8L72   float64 // 90.24 µs
	FactorPE8L72 float64 // 1.83
	FactorPE8L43 float64 // 1.66
}

// Paper returns the published headline numbers.
func Paper() PaperHeadlines {
	return PaperHeadlines{
		NICPE16L43:   102.14,
		FactorPE16:   1.78,
		NICGB16L43:   152.27,
		FactorGB16:   1.46,
		NICPE8L72:    49.25,
		HostPE8L72:   90.24,
		FactorPE8L72: 1.83,
		FactorPE8L43: 1.66,
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustRecv(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// Describe formats a spec for table titles.
func (s Spec) Describe() string {
	return fmt.Sprintf("%s-based %s, %d nodes, %s",
		s.Level, algLabel(s.Alg, s.Dim), s.Cluster.Nodes, s.Cluster.NIC.Name)
}
