// Fuzzy barrier: because the paper separates barrier initiation
// (gm_barrier_send_with_callback) from completion polling (gm_receive),
// the host can compute while the NIC runs the barrier (Gupta's "fuzzy
// barrier", Sections 1 and 5.2).
//
// This example runs the same computation+barrier workload twice — once
// serially (barrier, then compute) and once fuzzily (start barrier,
// compute while polling, then wait) — and reports the overlap won.
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

const (
	nodes      = 8
	port       = 2
	iterations = 20
	chunk      = 4 * sim.Microsecond // one slice of overlappable work
	chunks     = 16                  // per iteration
)

func run(fuzzy bool) sim.Time {
	cl := cluster.New(cluster.DefaultConfig(nodes))
	group := core.UniformGroup(nodes, port)
	var finish sim.Time
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		gmPort, err := gm.Open(p, cl.MCP(rank), port)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, gmPort, 32)
		if err != nil {
			panic(err)
		}
		for i := 0; i < iterations; i++ {
			if fuzzy {
				// Initiate the barrier, then compute while the NIC works.
				pb, err := comm.StartBarrierMapped(p, mcp.PE, group, rank, 0, nil)
				if err != nil {
					panic(err)
				}
				for c := 0; c < chunks; c++ {
					p.Compute(chunk)
					pb.Test(p) // cheap completion poll between chunks
				}
				pb.Wait(p)
			} else {
				// Conventional: synchronize first, then compute.
				if err := comm.BarrierMapped(p, mcp.PE, group, rank, 0, nil); err != nil {
					panic(err)
				}
				for c := 0; c < chunks; c++ {
					p.Compute(chunk)
				}
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
	serial := run(false)
	fuzzy := run(true)
	fmt.Printf("%d iterations of (%dx%v compute + 8-node NIC barrier):\n\n",
		iterations, chunks, chunk)
	fmt.Printf("  serial barrier-then-compute: %8.2fus total\n", serial.Micros())
	fmt.Printf("  fuzzy  compute-while-barrier:%8.2fus total\n", fuzzy.Micros())
	fmt.Printf("\noverlap recovered %.2fus (%.1f%%) — computation hidden inside barrier latency\n",
		(serial - fuzzy).Micros(), 100*float64(serial-fuzzy)/float64(serial))
}
