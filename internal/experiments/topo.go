package experiments

import (
	"gmsim/internal/cluster"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/network"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// Experiment E13 (extension): the paper's 16-node testbed extrapolated to
// production-scale fabrics built from fixed-radix switches — star-of-
// switches trees and two-/three-level Clos networks up to the 1024 nodes a
// radix-16 fat-tree supports. The NIC-based barrier's advantage is
// predicted to grow with scale (Section 7); these sweeps measure it.

// TopoConfig returns the LANai 4.3 testbed on n nodes wired as the given
// topology kind from radix-port switches. Single keeps the historical
// auto-expansion (one crossbar grown to the node count — the idealized
// baseline); the multi-switch kinds are strict.
func TopoConfig(kind topo.Kind, n, radix int) cluster.Config {
	cfg := cluster.DefaultConfig(n)
	cfg.Switch = network.DefaultSwitchParams(radix)
	cfg.Topology = &topo.Spec{Kind: kind, Radix: radix, AllowExpand: kind == topo.Single}
	return cfg
}

// TopoScaleRow is one (topology, size) row of the scale sweep: the four
// barrier variants' latencies and the factors of improvement, plus the
// fabric's shape for context.
type TopoScaleRow struct {
	Kind     topo.Kind
	Nodes    int
	Switches int
	// Diameter is the longest NIC-to-NIC route in switch hops.
	Diameter                     int
	NICPE, HostPE, NICGB, HostGB float64
	NICGBDim, HostGBDim          int
	FactorPE, FactorGB           float64
}

// gbDims picks the GB tree dimensions to sweep at size n. Paper-scale
// clusters sweep every dimension 1..n-1 (the paper's methodology); larger
// sizes sample the useful range — past dim ~32 the root's fan-in
// serializes and latency only grows, so the omitted dimensions cannot win.
func gbDims(n int) []int {
	if n <= 16 {
		dims := make([]int, 0, n-1)
		for d := 1; d <= n-1; d++ {
			dims = append(dims, d)
		}
		return dims
	}
	var dims []int
	for _, d := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		if d <= n-1 {
			dims = append(dims, d)
		}
	}
	return dims
}

// TunedGBDim picks the GB tree dimension for cfg from the closed-form
// steady-state model (internal/model) instead of an exhaustive
// per-dimension DES sweep — the same argmin GBDimSweep measures on every
// conformance cell (see tuned_test.go), at a millionth of the cost. The
// model prices the single-crossbar steady state; on a multi-switch fabric
// the tuned dimension is the flat-tree optimum, which the topology-aware
// mapping then folds onto leaves.
func TunedGBDim(cfg cluster.Config) int {
	return model.TunedGBDim(cfg.Nodes, model.GBCostsAt(cfg.NIC.ClockMHz))
}

// TopoScaleSweep measures NIC- and host-based PE and GB barriers for every
// feasible (kind, size) combination, flattening all the independent
// simulations into one worker-pool batch. Combinations a kind cannot host
// (capacity exceeded — including the 256-port route-byte ceiling on
// expanded single crossbars) are skipped, so e.g. sizes up to 1024 can be
// paired with clos2 (128 nodes at radix 16) without error handling at the
// call site; callers that want to report the gaps can compare rows
// against kinds x sizes.
//
// GB runs topology-aware (core.GBTreeMapped) and takes the best dimension
// of dims (nil = the gbDims sample for each size). With tuned, dims is
// ignored and each row measures only its TunedGBDim: a cell then costs 4
// simulations instead of 2 + 2·|dims|, which is what makes the 8192- and
// 16384-node fat-tree rows affordable. The host GB row reuses the
// NIC-tuned dimension (an approximation — the host steady state has the
// same shape with larger per-level constants, and its optimum moves
// little).
//
// partitions > 1 splits each cluster into that many engine partitions
// (the conservative parallel engine; results are bit-identical at any
// partition count). Rows whose fabric cannot host the split — too few leaf
// switches, or the single-crossbar baseline, which has no switch boundary
// to cut — silently run serial, so mixed sweeps like single+clos3 still
// produce every row.
func TopoScaleSweep(kinds []topo.Kind, sizes []int, radix, iters int, dims []int, tuned bool, partitions int) []TopoScaleRow {
	type rowPlan struct {
		kind               topo.Kind
		n                  int
		switches, diameter int
		offset             int // index of this row's first spec
		dims               []int
	}
	var plans []rowPlan
	var specs []Spec
	for _, kind := range kinds {
		for _, n := range sizes {
			if n < 2 {
				continue
			}
			spec := topo.Spec{Kind: kind, Nodes: n, Radix: radix, AllowExpand: kind == topo.Single}
			t, err := topo.Build(spec)
			if err != nil {
				continue // infeasible at this size; skip the row
			}
			st, err := t.ComputeStats()
			if err != nil {
				continue
			}
			cfg := TopoConfig(kind, n, radix)
			if partitions > 1 {
				cfg.Partitions = partitions
				if cfg.Validate() != nil {
					cfg.Partitions = 1
				}
			}
			ds := dims
			if tuned {
				ds = []int{TunedGBDim(cfg)}
			} else if ds == nil {
				ds = gbDims(n)
			}
			plans = append(plans, rowPlan{
				kind: kind, n: n,
				switches: t.Switches(), diameter: st.Diameter,
				offset: len(specs), dims: ds,
			})
			specs = append(specs,
				Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
				Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
			for _, d := range ds {
				specs = append(specs, Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.GB, Dim: d, TopoAware: true, Iters: iters})
			}
			for _, d := range ds {
				specs = append(specs, Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.GB, Dim: d, TopoAware: true, Iters: iters})
			}
		}
	}
	results := MeasureBarriers(specs)

	rows := make([]TopoScaleRow, 0, len(plans))
	for _, pl := range plans {
		o, nd := pl.offset, len(pl.dims)
		row := TopoScaleRow{
			Kind: pl.kind, Nodes: pl.n,
			Switches: pl.switches, Diameter: pl.diameter,
			NICPE:  results[o].MeanMicros,
			HostPE: results[o+1].MeanMicros,
		}
		nicBest, nicLat := bestGBDim(results[o+2 : o+2+nd])
		hostBest, hostLat := bestGBDim(results[o+2+nd : o+2+2*nd])
		row.NICGBDim, row.NICGB = pl.dims[nicBest-1], nicLat
		row.HostGBDim, row.HostGB = pl.dims[hostBest-1], hostLat
		row.FactorPE = row.HostPE / row.NICPE
		row.FactorGB = row.HostGB / row.NICGB
		rows = append(rows, row)
	}
	return rows
}

// ContentionRow is one row of the cross-switch contention experiment:
// mean per-message streaming time for sender/receiver pairs placed on one
// crossbar vs pairs straddling the tree's root, as the number of
// concurrent pairs grows. The crossbar is non-blocking, so IntraMicros
// stays flat; the cross pairs all share one root trunk, so CrossMicros
// grows once the aggregate stream rate exceeds the trunk's — the effect
// that motivates Clos fabrics over simple trees (and the reason
// TopoScaleSweep's mapped GB trees keep hops intra-switch).
type ContentionRow struct {
	Pairs       int
	IntraMicros float64
	CrossMicros float64
	Slowdown    float64
}

// CrossSwitchContention builds a two-leaf star (leaf–root–leaf) and runs p
// concurrent one-way streams — each sender posts iters back-to-back
// messages of the given size, each receiver acknowledges the last — with
// the pairs placed either inside one leaf crossbar (intra) or across the
// two leaves (cross), for each pair count. Each (placement, p) combination
// is an independent simulation fanned out on the worker pool.
func CrossSwitchContention(radix int, pairCounts []int, bytes, iters int) []ContentionRow {
	pmax := 0
	for _, p := range pairCounts {
		if p > pmax {
			pmax = p
		}
	}
	// Leaf capacity: 2·pmax nodes on leaf 0 for the intra runs, pmax on
	// each leaf for the cross runs.
	leafNodes := 2 * pmax
	n := 2 * leafNodes
	jobs := make([]func() float64, 0, 2*len(pairCounts))
	for _, p := range pairCounts {
		p := p
		cfg := cluster.DefaultConfig(n)
		cfg.Switch = network.DefaultSwitchParams(radix)
		cfg.Topology = &topo.Spec{Kind: topo.Star, Radix: radix, LeafNodes: leafNodes}
		intra := make([][2]int, p)
		cross := make([][2]int, p)
		for i := 0; i < p; i++ {
			intra[i] = [2]int{2 * i, 2*i + 1}   // both on leaf 0
			cross[i] = [2]int{i, leafNodes + i} // leaf 0 <-> leaf 1
		}
		jobs = append(jobs,
			func() float64 { return measureConcurrentStreams(cfg, intra, bytes, iters) },
			func() float64 { return measureConcurrentStreams(cfg, cross, bytes, iters) })
	}
	lats := runner.Collect(0, jobs)
	rows := make([]ContentionRow, 0, len(pairCounts))
	for i, p := range pairCounts {
		in, cr := lats[2*i], lats[2*i+1]
		rows = append(rows, ContentionRow{Pairs: p, IntraMicros: in, CrossMicros: cr, Slowdown: cr / in})
	}
	return rows
}

// measureConcurrentStreams runs one one-way stream per pair, all
// concurrently, and returns the mean per-message time over pairs in
// microseconds. The first element of each pair streams iters messages to
// the second, which sends a single ack after consuming them all; a pair's
// elapsed time runs from its first send to the ack's arrival, so it
// includes any queuing the streams impose on each other.
func measureConcurrentStreams(cfg cluster.Config, pairs [][2]int, bytes, iters int) float64 {
	cl := cluster.New(cfg)
	payload := make([]byte, bytes)
	elapsed := make([]sim.Time, len(pairs))
	for pi, pr := range pairs {
		pi, a, b := pi, pr[0], pr[1]
		epA := mcp.Endpoint{Node: network.NodeID(a), Port: 2}
		epB := mcp.Endpoint{Node: network.NodeID(b), Port: 2}
		cl.Spawn(a, a, func(p *host.Process) {
			comm := openComm(cl, p, 8)
			t0 := p.Now()
			for i := 0; i < iters; i++ {
				must(comm.Send(p, epB, payload))
			}
			mustRecv(comm.RecvFrom(p, epB)) // receiver's ack
			elapsed[pi] = p.Now() - t0
		})
		cl.Spawn(b, b, func(p *host.Process) {
			comm := openComm(cl, p, 64)
			for i := 0; i < iters; i++ {
				mustRecv(comm.RecvFrom(p, epA))
			}
			must(comm.Send(p, epA, []byte{0xAC}))
		})
	}
	cl.Run()
	var total sim.Time
	for _, e := range elapsed {
		total += e
	}
	return total.Micros() / float64(len(pairs)) / float64(iters)
}
