package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
	"gmsim/internal/topo"
)

// cell is one barrier measurement: a cluster, a barrier placement and
// algorithm, and an engine.
type cell struct {
	name     string
	cfg      cluster.Config
	topo     topo.Spec // the fabric cluster.New builds, timed alone when traced
	host     bool      // host-based barrier (GM sends) instead of NIC-based
	alg      mcp.BarrierAlg
	mapped   bool // topology-aware GB tree
	warmup   int
	iters    int
	parallel bool // conservative parallel engine on min(partitions, nproc) workers
}

// cellOut is what one cell run measured. Host times are wall clock;
// everything else is simulated and deterministic.
type cellOut struct {
	mean              float64 // µs per timed barrier at rank 0
	barriers, retrans int64
	// setup runs from cluster.New until rank 0 leaves its first barrier,
	// when every rank has finished provisioning receive buffers; newComm is
	// the part of it spent inside Run.
	setup, newComm time.Duration
	clusterNew     time.Duration
	// timed is rank 0's timed iterations, estimated as iters times the
	// median host time between consecutive barrier exits, so a stall of the
	// shared machine moves one sample instead of the total.
	timed time.Duration
	// window runs from rank 0 leaving its first barrier until Run returns;
	// the serial engine's event and counter deltas cover the same span.
	window                    time.Duration
	setupEvents, windowEvents int64
	episodes                  int64 // barrier episodes inside window
	delta                     *stats.Registry
	windows, posts            int64
	stranded                  int
	mallocs, allocBytes       uint64
	gcCycles                  uint32
}

// runCell measures one cell. A panic anywhere in the library comes back
// as an error carrying its text.
func runCell(r *run, c cell) (out cellOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: %v", c.name, p)
		}
	}()
	cfg := c.cfg
	n := cfg.Nodes
	dim := 0
	if c.alg == mcp.GB {
		sp := r.tr.begin("model.TunedGBDim", 0, 0)
		dim = model.TunedGBDim(n, model.GBCostsAt(cfg.NIC.ClockMHz))
		sp.end()
	}
	if r.tr.on {
		sp := r.tr.begin("topo.Build", 0, 0)
		if _, err := topo.Build(c.topo); err != nil {
			return out, err
		}
		sp.end()
	}

	start := time.Now()
	sp := r.tr.begin("cluster.New", 0, 0)
	cl := cluster.New(cfg)
	out.clusterNew = sp.end()
	g := core.UniformGroup(n, 2)
	var leafOf []int
	if c.mapped {
		leafOf = cl.Topology().LeafOf()
	}
	var runStart time.Time
	var first *stats.Registry
	var mem0 runtime.MemStats
	var firstExit, t0, t1 time.Time
	exits := make([]time.Time, 0, c.iters)
	var simT0, simT1 sim.Time
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, port, 4*n+16)
		if err != nil {
			panic(err)
		}
		for i := 0; i < c.warmup+c.iters; i++ {
			if rank == 0 && i == c.warmup {
				t0, simT0 = time.Now(), p.Now()
			}
			if c.host {
				err = comm.HostBarrierMapped(p, c.alg, g, rank, dim, leafOf)
			} else {
				err = comm.BarrierMapped(p, c.alg, g, rank, dim, leafOf)
			}
			if err != nil {
				panic(err)
			}
			if rank == 0 && i >= c.warmup {
				exits = append(exits, time.Now())
			}
			if rank == 0 && i == 0 {
				firstExit = time.Now()
				if !c.parallel {
					out.setupEvents = cl.Sim().Executed()
					first = cl.Metrics()
				}
				if r.tr.on {
					runtime.ReadMemStats(&mem0)
				}
			}
		}
		if rank == 0 {
			t1, simT1 = time.Now(), p.Now()
		}
	})

	runStart = time.Now()
	if c.parallel {
		workers := min(cfg.Partitions, nproc())
		cl.RunWorkers(workers)
		out.windows = cl.Group().Windows()
		out.posts = cl.Group().Posts()
		out.stranded = cl.Group().Stranded()
	} else {
		cl.Run()
		out.windowEvents = cl.Sim().Executed() - out.setupEvents
		out.stranded = cl.Sim().Stranded()
	}
	end := time.Now()
	if r.tr.on {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		out.mallocs = mem1.Mallocs - mem0.Mallocs
		out.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
		out.gcCycles = mem1.NumGC - mem0.NumGC
	}
	r.tr.record("core.NewComm", runStart, firstExit)
	r.tr.record("barrier.timed", t0, t1)

	out.setup = firstExit.Sub(start)
	out.newComm = firstExit.Sub(runStart)
	gaps := make([]float64, len(exits))
	for i, at := range exits {
		prev := t0
		if i > 0 {
			prev = exits[i-1]
		}
		gaps[i] = float64(at.Sub(prev))
	}
	out.timed = time.Duration(float64(c.iters) * median(gaps))
	out.window = end.Sub(firstExit)
	out.episodes = int64(c.warmup + c.iters - 1)
	out.mean = (simT1 - simT0).Micros() / float64(c.iters)
	for i := 0; i < n; i++ {
		st := cl.MCP(i).Stats()
		out.barriers += st.BarrierCompleted
		out.retrans += st.Retransmissions + st.BarrierResends
	}
	if first != nil {
		out.delta = cl.Metrics()
		for _, name := range out.delta.Names() {
			out.delta.Set(name, out.delta.Get(name)-first.Get(name))
		}
	}
	return out, nil
}

// checkCell applies the output checks every simulator cell must pass: the
// mean pinned from the parent commit, the firmware barrier count and no
// stranded process.
func checkCell(r *run, c cell, out cellOut) {
	want, ok := pins[c.serial()]
	got := strconv.FormatFloat(out.mean, 'g', -1, 64)
	r.led.check(c.name+".mean", ok && got == want, "mean_us %s, pinned %s", got, want)
	var wantBarriers int64
	if !c.host {
		wantBarriers = int64(c.cfg.Nodes * (c.warmup + c.iters))
	}
	r.led.check(c.name+".barriers", out.barriers == wantBarriers, "%d barriers, want %d", out.barriers, wantBarriers)
	r.led.check(c.name+".stranded", out.stranded == 0, "%d stranded processes", out.stranded)
}

// serial names the serial-engine twin of a partitioned cell (itself for a
// serial cell); both must produce the same mean.
func (c cell) serial() string { return strings.TrimSuffix(c.name, "_p8") }

// pins are each cell's mean barrier latency in µs, recorded from the
// parent commit with strconv's shortest round-trip formatting, so a match
// is bit-exact. The 16-node LANai 4.3 NIC-PE headline is the 101.133 µs
// that scripts/simd_smoke.sh pins.
var pins = map[string]string{
	"lanai43_n16_nic_pe":  "101.133",
	"lanai43_n16_nic_gb":  "149.85399999999998",
	"lanai43_n16_host_pe": "181.88",
	"lanai43_n16_host_gb": "290.469",
	"lanai72_n8_nic_pe":   "48.313",
	"lanai72_n8_nic_gb":   "65.163",
	"lanai72_n8_host_pe":  "90.321",
	"lanai72_n8_host_gb":  "136.503",
	"clos3_n1024_nic_pe":  "235.501",
	"clos3_n1024_nic_gb":  "342.82",
}

// fig5Cells are the Figure 5 cells: LANai 4.3 at 16 nodes and LANai 7.2 at
// 8 nodes, each NIC- and host-based, PE and GB (GB at the model-tuned
// dimension), with the harness's warmup and iteration counts.
func fig5Cells() []cell {
	var cells []cell
	for _, tb := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"lanai43_n16", cluster.DefaultConfig(16)},
		{"lanai72_n8", cluster.LANai72Config(8)},
	} {
		n := tb.cfg.Nodes
		for _, v := range []struct {
			name string
			host bool
			alg  mcp.BarrierAlg
		}{{"nic_pe", false, mcp.PE}, {"nic_gb", false, mcp.GB}, {"host_pe", true, mcp.PE}, {"host_gb", true, mcp.GB}} {
			cells = append(cells, cell{
				name: tb.name + "_" + v.name, cfg: tb.cfg,
				topo: topo.Spec{Kind: topo.Single, Nodes: n, Radix: n, AllowExpand: true},
				host: v.host, alg: v.alg, warmup: 5, iters: 200,
			})
		}
	}
	return cells
}

// fattreeCells are the 1024-node radix-16 three-level Clos cells: NIC PE
// and topology-aware NIC GB, each on the serial engine and on 8
// partitions.
func fattreeCells() []cell {
	const n, radix = 1024, 16
	spec := topo.Spec{Kind: topo.Clos3, Nodes: n, Radix: radix}
	var cells []cell
	for _, v := range []struct {
		name string
		alg  mcp.BarrierAlg
	}{{"nic_pe", mcp.PE}, {"nic_gb", mcp.GB}} {
		for _, parallel := range []bool{false, true} {
			cfg := cluster.DefaultConfig(n)
			cfg.Switch = network.DefaultSwitchParams(radix)
			s := spec
			cfg.Topology = &s
			name := "clos3_n1024_" + v.name
			if parallel {
				cfg.Partitions = 8
				name += "_p8"
			}
			cells = append(cells, cell{
				name: name, cfg: cfg, topo: spec, alg: v.alg, mapped: true,
				warmup: 1, iters: 60, parallel: parallel,
			})
		}
	}
	return cells
}

// roundStats accumulates one round's cells.
type roundStats struct {
	setup, timed time.Duration
	timedIters   int
	partTimed    time.Duration
	partIters    int
	ops          int           // cells completed
	wall         time.Duration // spent in the cells, forced collections excluded
}

// simTotals accumulates the per-layer counts and host times over a run's
// serial cells (partitioned ones feed only the sim.group metrics).
type simTotals struct {
	setupEvents, windowEvents, episodes int64
	window                              time.Duration
	delta                               *stats.Registry
	barriers, retrans                   int64
	stranded                            int64
	windows, posts                      int64
	mallocs, allocBytes                 uint64
	gcCycles                            uint32
}

// runCells runs the cells in order, round after round (see run.rounds),
// and reports the end-to-end metrics or, when traced, the per-layer ones.
func runCells(r *run, cells []cell, nominal time.Duration) {
	var rounds []roundStats
	tot := simTotals{delta: stats.NewRegistry()}
	var newMs, commMs []float64
	means := map[string]float64{}
	r.rounds(nominal, func(k int) {
		var rs roundStats
		var newRound, commRound time.Duration
		for _, c := range cells {
			// Collect the previous cell's garbage first, so peak RSS and
			// GC work do not depend on what ran before.
			runtime.GC()
			t := time.Now()
			out, err := runCell(r, c)
			rs.wall += time.Since(t)
			r.led.op(c.name, err)
			if err != nil {
				continue
			}
			rs.ops++
			checkCell(r, c, out)
			means[c.name] = out.mean
			if c.parallel {
				rs.partTimed += out.timed
				rs.partIters += c.iters
				tot.windows += out.windows
				tot.posts += out.posts
				continue
			}
			rs.setup += out.setup
			rs.timed += out.timed
			rs.timedIters += c.iters
			newRound += out.clusterNew
			commRound += out.newComm
			if k == 0 {
				tot.setupEvents += out.setupEvents
				tot.windowEvents += out.windowEvents
				tot.episodes += out.episodes
				tot.delta.AddAll(out.delta)
				tot.barriers += out.barriers
				tot.retrans += out.retrans
				tot.stranded += int64(out.stranded)
			}
			tot.window += out.window
			tot.mallocs += out.mallocs
			tot.allocBytes += out.allocBytes
			tot.gcCycles += out.gcCycles
		}
		newMs = append(newMs, ms(newRound))
		commMs = append(commMs, ms(commRound))
		rounds = append(rounds, rs)
	})

	// Serial and partitioned runs of one cell must agree bit for bit.
	for _, c := range cells {
		if !c.parallel {
			continue
		}
		pm, okP := means[c.name]
		sm, okS := means[c.serial()]
		if okP && okS {
			r.led.check(c.name+".matches_serial", pm == sm, "partitioned mean %v, serial %v", pm, sm)
		}
	}

	var setups, rates, partRates, opRates []float64
	for _, rs := range rounds {
		setups = append(setups, rs.setup.Seconds())
		opRates = append(opRates, float64(rs.ops)/rs.wall.Seconds())
		if rs.timed > 0 {
			rates = append(rates, float64(rs.timedIters)/rs.timed.Seconds())
		}
		if rs.partTimed > 0 {
			partRates = append(partRates, float64(rs.partIters)/rs.partTimed.Seconds())
		}
	}
	m := r.metrics
	if !r.traced {
		m["setup_s"] = median(setups)
		m["barriers_per_s"] = median(rates)
		m["ops_per_s"] = median(opRates)
		return
	}

	for name, ref := range paperRefs {
		if mean, ok := means[name]; ok {
			m[ref.metric] = 100 * math.Abs(mean-ref.us) / ref.us
		}
	}
	nr := float64(len(rounds))
	ep := float64(tot.episodes)
	m["sim.setup_events"] = float64(tot.setupEvents)
	m["sim.events_per_barrier"] = float64(tot.windowEvents) / ep
	m["sim.ns_per_event"] = float64(tot.window.Nanoseconds()) / (nr * float64(tot.windowEvents))
	m["sim.stranded"] = float64(tot.stranded)
	m["sim.group.windows"] = float64(tot.windows) / nr
	m["sim.group.cross_posts"] = float64(tot.posts) / nr
	if tot.windows > 0 {
		m["sim.group.posts_per_window"] = float64(tot.posts) / float64(tot.windows)
	}
	m["sim.group.barriers_per_s"] = median(partRates)
	m["network.delivered_per_barrier"] = float64(tot.delta.Get("fabric.delivered")) / ep
	m["network.dropped"] = float64(tot.delta.Get("fabric.dropped"))
	m["lanai.fw_tasks_per_barrier"] = float64(tot.delta.Get("fw.tasks")) / ep
	m["lanai.fw_busy_us_per_barrier"] = float64(tot.delta.Get("fw.busy_ns")) / 1000 / ep
	m["lanai.sdma_per_barrier"] = float64(tot.delta.Get("sdma.transfers")) / ep
	m["lanai.rdma_per_barrier"] = float64(tot.delta.Get("rdma.transfers")) / ep
	m["mcp.barriers_completed"] = float64(tot.barriers)
	m["mcp.retrans"] = float64(tot.retrans)
	m["cluster.new_ms"] = median(newMs)
	m["core.newcomm_ms"] = median(commMs)
	m["topo.build_ms"] = r.tr.total("topo.Build") / nr
	m["model.tune_ms"] = r.tr.total("model.TunedGBDim") / nr
	m["runtime.allocs_per_barrier"] = float64(tot.mallocs) / (nr * ep)
	m["runtime.alloc_kb_per_barrier"] = float64(tot.allocBytes) / 1024 / (nr * ep)
	m["runtime.gc_cycles"] = float64(tot.gcCycles) / nr
}

// Nominal round durations on a 2-core machine: a fig5 round takes about
// 0.5 s and a fattree1024 round 20-33 s, so a 20-second run is 40 fig5
// rounds or one fattree1024 round.
const (
	fig5Round    = 500 * time.Millisecond
	fattreeRound = 20 * time.Second
)

func runFig5(r *run)    { runCells(r, fig5Cells(), fig5Round) }
func runFattree(r *run) { runCells(r, fattreeCells(), fattreeRound) }
