package experiments

import (
	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
)

// Experiment E10 (extension): the paper's Section 8 hypothesis, measured.
// NIC-based vs host-based broadcast, reduce and allreduce latency, using
// the same consecutive-operation averaging as the barrier experiments and
// the same tree-dimension sweep methodology.

// CollSpec describes one collective latency measurement.
type CollSpec struct {
	Cluster       cluster.Config
	NICBased      bool
	Op            mcp.CollOp
	Dim           int
	Elems         int // reduce vector length (int64 elements); payload for broadcast
	Warmup, Iters int
}

// MeasureCollective returns the mean one-shot latency of the operation in
// microseconds: each timed iteration is separated by an untimed NIC-based
// barrier, and the sample is (latest completion across ranks) minus
// (latest operation start across ranks). One-way collectives (broadcast, reduce)
// complete at the producer without a handshake, so an unsynchronized tight
// loop would measure producer throughput rather than operation latency.
func MeasureCollective(spec CollSpec) float64 {
	if spec.Warmup == 0 {
		spec.Warmup = 3
	}
	if spec.Iters == 0 {
		spec.Iters = DefaultIters
	}
	if spec.Elems == 0 {
		spec.Elems = 1
	}
	n := spec.Cluster.Nodes
	cl := cluster.New(spec.Cluster)
	g := core.UniformGroup(n, 2)
	payload := core.EncodeInt64s(make([]int64, spec.Elems))
	rounds := spec.Warmup + spec.Iters
	starts := make([]sim.Time, rounds)
	latest := make([]sim.Time, rounds)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		comm := openComm(cl, p, 4*n+16)
		one := func() {
			var err error
			switch {
			case spec.NICBased && spec.Op == mcp.Broadcast:
				var data []byte
				if rank == 0 {
					data = payload
				}
				_, err = comm.NICBroadcast(p, g, rank, spec.Dim, data)
			case spec.NICBased && spec.Op == mcp.Reduce:
				_, err = comm.NICReduce(p, g, rank, spec.Dim, mcp.OpSum, payload)
			case spec.NICBased && spec.Op == mcp.AllGather:
				_, err = comm.NICAllGather(p, g, rank, spec.Dim, payload)
			case spec.NICBased:
				_, err = comm.NICAllReduce(p, g, rank, spec.Dim, mcp.OpSum, payload)
			case spec.Op == mcp.Broadcast:
				var data []byte
				if rank == 0 {
					data = payload
				}
				_, err = comm.HostBroadcast(p, g, rank, spec.Dim, data)
			case spec.Op == mcp.Reduce:
				_, err = comm.HostReduce(p, g, rank, spec.Dim, mcp.OpSum, payload)
			case spec.Op == mcp.AllGather:
				_, err = comm.HostAllGather(p, g, rank, spec.Dim, payload)
			default:
				_, err = comm.HostAllReduce(p, g, rank, spec.Dim, mcp.OpSum, payload)
			}
			if err != nil {
				panic(err)
			}
		}
		for i := 0; i < rounds; i++ {
			// Untimed separator barrier bounds producer run-ahead and
			// gives every iteration a common start line.
			if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
				panic(err)
			}
			// The iteration's start line is when the *last* rank begins
			// the operation (barrier exits are not simultaneous).
			if p.Now() > starts[i] {
				starts[i] = p.Now()
			}
			one()
			if p.Now() > latest[i] {
				latest[i] = p.Now()
			}
		}
	})
	cl.Run()
	total := 0.0
	for i := spec.Warmup; i < rounds; i++ {
		total += (latest[i] - starts[i]).Micros()
	}
	return total / float64(spec.Iters)
}

// MeasureCollectives measures every spec on the worker pool, returning
// latencies in input order (bit-identical to a serial loop; each
// measurement owns its Simulator).
func MeasureCollectives(specs []CollSpec) []float64 {
	return runner.Map(0, specs, MeasureCollective)
}

// collSweepSpecs builds the per-dimension specs for one operation.
func collSweepSpecs(cfg cluster.Config, nic bool, op mcp.CollOp, elems, iters int) []CollSpec {
	specs := make([]CollSpec, 0, cfg.Nodes-1)
	for dim := 1; dim <= cfg.Nodes-1; dim++ {
		specs = append(specs, CollSpec{
			Cluster: cfg, NICBased: nic, Op: op, Dim: dim, Elems: elems, Iters: iters,
		})
	}
	return specs
}

// bestCollDim folds a dimension sweep (dims 1..len) to the first dimension
// achieving the minimum latency, matching the serial tie-break.
func bestCollDim(lats []float64) (int, float64) {
	bestDim, bestLat := 1, 0.0
	for i, lat := range lats {
		if i == 0 || lat < bestLat {
			bestDim, bestLat = i+1, lat
		}
	}
	return bestDim, bestLat
}

// OptimalCollDim sweeps the tree dimension and returns the best (dim,
// latency), mirroring the GB barrier methodology.
func OptimalCollDim(cfg cluster.Config, nic bool, op mcp.CollOp, elems, iters int) (int, float64) {
	return bestCollDim(MeasureCollectives(collSweepSpecs(cfg, nic, op, elems, iters)))
}

// CollRow is one node-count row of the collective comparison.
type CollRow struct {
	Nodes                     int
	NICBcast, HostBcast       float64
	NICReduce, HostReduce     float64
	NICAllRed, HostAllRed     float64
	NICAllGat, HostAllGat     float64
	FactorBcast, FactorAllRed float64
	FactorAllGat              float64
}

// CollectiveComparison produces the E10 table: optimal-dimension latencies
// for the three operations at both levels. All sizes × operations × levels
// × dimensions go to the worker pool as one flat batch, then the in-order
// latencies fold back into rows.
func CollectiveComparison(mkCfg func(n int) cluster.Config, sizes []int, elems, iters int) []CollRow {
	type combo struct {
		nic bool
		op  mcp.CollOp
	}
	combos := []combo{
		{true, mcp.Broadcast}, {false, mcp.Broadcast},
		{true, mcp.Reduce}, {false, mcp.Reduce},
		{true, mcp.AllReduce}, {false, mcp.AllReduce},
		{true, mcp.AllGather}, {false, mcp.AllGather},
	}
	var specs []CollSpec
	for _, n := range sizes {
		cfg := mkCfg(n)
		for _, c := range combos {
			specs = append(specs, collSweepSpecs(cfg, c.nic, c.op, elems, iters)...)
		}
	}
	lats := MeasureCollectives(specs)

	rows := make([]CollRow, 0, len(sizes))
	i := 0
	for _, n := range sizes {
		dims := n - 1
		row := CollRow{Nodes: n}
		fields := []*float64{
			&row.NICBcast, &row.HostBcast,
			&row.NICReduce, &row.HostReduce,
			&row.NICAllRed, &row.HostAllRed,
			&row.NICAllGat, &row.HostAllGat,
		}
		for _, f := range fields {
			_, *f = bestCollDim(lats[i : i+dims])
			i += dims
		}
		row.FactorBcast = row.HostBcast / row.NICBcast
		row.FactorAllRed = row.HostAllRed / row.NICAllRed
		row.FactorAllGat = row.HostAllGat / row.NICAllGat
		rows = append(rows, row)
	}
	return rows
}
