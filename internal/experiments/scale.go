package experiments

import (
	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/mpi"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
)

// Experiment E11 (extension): the paper's scalability claim — "this factor
// of improvement is expected to increase with the size of the system" —
// projected beyond the 16-node testbed on simulated larger switches.
type ScaleRow struct {
	Nodes         int
	NICPE, HostPE float64
	Factor        float64
}

// ScaleSweep measures the PE barrier at both levels for each size, fanning
// all 2·len(sizes) whole-cluster simulations out over the worker pool.
// TwoLevel splits nodes across two switches once size exceeds half the
// largest single switch the era offered (16 ports).
func ScaleSweep(sizes []int, iters int) []ScaleRow {
	specs := make([]Spec, 0, 2*len(sizes))
	for _, n := range sizes {
		cfg := cluster.DefaultConfig(n)
		if n > 16 {
			cfg.TwoLevel = true
		}
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
	}
	results := MeasureBarriers(specs)
	rows := make([]ScaleRow, 0, len(sizes))
	for i, n := range sizes {
		nic := results[2*i].MeanMicros
		hst := results[2*i+1].MeanMicros
		rows = append(rows, ScaleRow{Nodes: n, NICPE: nic, HostPE: hst, Factor: hst / nic})
	}
	return rows
}

// Experiment E8b (extension): the Equation-3 prediction realized with a
// real messaging layer instead of a synthetic overhead knob — MPI_Barrier
// over the mpi package, backed by the host-based vs NIC-based barrier.
type MPIRow struct {
	Nodes               int
	NICBacked, HostBack float64
	Factor              float64
	RawFactor           float64
}

// MPIBarrierComparison measures MPI_Barrier latency with each backend and
// the raw-GM factor for reference. The four measurements per size are
// independent simulations, so they all go to the worker pool as one batch.
func MPIBarrierComparison(sizes []int, iters int) []MPIRow {
	jobs := make([]func() float64, 0, 4*len(sizes))
	for _, n := range sizes {
		n := n
		cfgC := cluster.DefaultConfig(n)
		jobs = append(jobs,
			func() float64 { return measureMPIBarrier(cfgC, n, true, iters) },
			func() float64 { return measureMPIBarrier(cfgC, n, false, iters) },
			func() float64 {
				return MeasureBarrier(Spec{Cluster: cfgC, Level: NICLevel, Alg: mcp.PE, Iters: iters}).MeanMicros
			},
			func() float64 {
				return MeasureBarrier(Spec{Cluster: cfgC, Level: HostLevel, Alg: mcp.PE, Iters: iters}).MeanMicros
			})
	}
	lats := runner.Collect(0, jobs)
	rows := make([]MPIRow, 0, len(sizes))
	for i, n := range sizes {
		nicLat, hostLat, rawNIC, rawHost := lats[4*i], lats[4*i+1], lats[4*i+2], lats[4*i+3]
		rows = append(rows, MPIRow{
			Nodes: n, NICBacked: nicLat, HostBack: hostLat,
			Factor: hostLat / nicLat, RawFactor: rawHost / rawNIC,
		})
	}
	return rows
}

func measureMPIBarrier(cfg cluster.Config, n int, nicBarrier bool, iters int) float64 {
	mcfg := mpi.DefaultConfig()
	mcfg.UseNICBarrier = nicBarrier
	cl := cluster.New(cfg)
	g := core.UniformGroup(n, 2)
	var t0, t1 sim.Time
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		comm := openComm(cl, p, 4*n+16)
		w, err := mpi.NewWorld(comm, g, rank, mcfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 5; i++ {
			if err := w.Barrier(p); err != nil {
				panic(err)
			}
		}
		if rank == 0 {
			t0 = p.Now()
		}
		for i := 0; i < iters; i++ {
			if err := w.Barrier(p); err != nil {
				panic(err)
			}
		}
		if rank == 0 {
			t1 = p.Now()
		}
	})
	cl.Run()
	return (t1 - t0).Micros() / float64(iters)
}
