// Stencil: the paper's motivation made concrete. "If the barrier latency is
// high, then the granularity must also be high. With a lower latency
// barrier operation finer-grained computation can be supported" (Section 1).
//
// This example runs a BSP-style 1-D Jacobi stencil across 8 nodes: each
// iteration is halo exchange (GM data messages) + local compute + barrier.
// It sweeps the per-iteration compute grain and reports, for host-based and
// NIC-based barriers, the parallel efficiency — showing where each variant
// stops being profitable.
package main

import (
	"fmt"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
)

const (
	nodes      = 8
	port       = 2
	iterations = 30
	haloBytes  = 64
)

// runStencil returns the total runtime with the given per-iteration compute
// grain, using NIC-based barriers when nicBarrier is set.
func runStencil(grain sim.Time, nicBarrier bool) sim.Time {
	cl := cluster.New(cluster.DefaultConfig(nodes))
	group := core.UniformGroup(nodes, port)
	var finish sim.Time
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		gmPort, err := gm.Open(p, cl.MCP(rank), port)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, gmPort, 64)
		if err != nil {
			panic(err)
		}
		left, right := rank-1, rank+1
		halo := make([]byte, haloBytes)
		for it := 0; it < iterations; it++ {
			// Halo exchange with the neighbors.
			if left >= 0 {
				if err := comm.Send(p, group[left], halo); err != nil {
					panic(err)
				}
			}
			if right < nodes {
				if err := comm.Send(p, group[right], halo); err != nil {
					panic(err)
				}
			}
			if left >= 0 {
				if _, err := comm.RecvFrom(p, group[left]); err != nil {
					panic(err)
				}
			}
			if right < nodes {
				if _, err := comm.RecvFrom(p, group[right]); err != nil {
					panic(err)
				}
			}
			// Local relaxation.
			p.Compute(grain)
			// Iteration barrier.
			if nicBarrier {
				err = comm.BarrierMapped(p, mcp.PE, group, rank, 0, nil)
			} else {
				err = comm.HostBarrierMapped(p, mcp.PE, group, rank, 0, nil)
			}
			if err != nil {
				panic(err)
			}
		}
		if rank == 0 {
			finish = p.Now()
		}
	})
	cl.Run()
	return finish
}

func main() {
	fmt.Printf("1-D Jacobi stencil, %d nodes, %d iterations, halo %dB, LANai 4.3\n", nodes, iterations, haloBytes)
	fmt.Println("efficiency = compute time / total time (higher is better; small grains need fast barriers)")
	fmt.Println()
	tbl := stats.NewTable("", "Grain (us/iter)", "Host barrier (us)", "NIC barrier (us)",
		"Host efficiency", "NIC efficiency", "NIC speedup")
	for _, grainUS := range []float64{10, 25, 50, 100, 250, 500, 1000} {
		grain := sim.FromMicros(grainUS)
		hostT := runStencil(grain, false)
		nicT := runStencil(grain, true)
		compute := float64(iterations) * grainUS
		tbl.AddRow(grainUS, hostT.Micros(), nicT.Micros(),
			compute/hostT.Micros(), compute/nicT.Micros(),
			hostT.Micros()/nicT.Micros())
	}
	fmt.Print(tbl.String())
	fmt.Println("\nThe NIC-based barrier keeps efficiency acceptable at grains where the")
	fmt.Println("host-based barrier already dominates the iteration — the paper's point")
	fmt.Println("that NIC-level barriers enable finer-grained parallel computation.")
}
