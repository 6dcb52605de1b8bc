// Quickstart: build a simulated 8-node Myrinet/GM cluster with LANai 4.3
// NICs, run a few NIC-based pairwise-exchange barriers, and print what they
// cost — the shortest path through the public API.
package main

import (
	"fmt"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

func main() {
	const (
		nodes    = 8
		port     = 2 // GM reserves low port numbers; 2 is the first user port
		barriers = 5
	)

	// A cluster is N nodes — each a host processor plus a LANai NIC
	// running the MCP firmware — cabled to one Myrinet switch.
	cl := cluster.New(cluster.DefaultConfig(nodes))

	// The barrier group: one process per node, all on the same port.
	group := core.UniformGroup(nodes, port)

	// Per-rank exit times of the last barrier, for the report.
	exits := make([]sim.Time, nodes)

	// SpawnAll starts one process per node. Everything inside the body
	// runs in simulated time.
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()

		// Open a GM port on this node's NIC and wrap it in a Comm,
		// which manages receive buffers and early-arriving messages.
		gmPort, err := gm.Open(p, cl.MCP(rank), port)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, gmPort, 32)
		if err != nil {
			panic(err)
		}

		// Stagger the ranks a little so the barrier has real work to do.
		p.Compute(sim.Time(rank) * 3 * sim.Microsecond)

		for i := 0; i < barriers; i++ {
			t0 := p.Now()
			// One NIC-based barrier: the host hands the peer list to the
			// NIC (gm_barrier_send_with_callback) and waits for
			// GM_BARRIER_COMPLETED_EVENT. All intermediate messages stay
			// on the NICs.
			if err := comm.BarrierMapped(p, mcp.PE, group, rank, 0, nil); err != nil {
				panic(err)
			}
			if rank == 0 {
				fmt.Printf("barrier %d: rank 0 entered at %8.2fus, left at %8.2fus (%.2fus)\n",
					i, t0.Micros(), p.Now().Micros(), (p.Now() - t0).Micros())
			}
		}
		exits[rank] = p.Now()
	})

	cl.Run() // drive the simulation to completion

	fmt.Println()
	for rank, at := range exits {
		fmt.Printf("rank %d finished at %8.2fus\n", rank, at.Micros())
	}
	st := cl.MCP(0).Stats()
	fmt.Printf("\nnode 0 firmware: %d barrier packets sent, %d received, %d barriers completed\n",
		st.BarrierSent, st.BarrierRecvd, st.BarrierCompleted)
}
