// Command gmtrace records and prints a full-stack trace of barrier
// traffic: every injection and delivery on the fabric during a window of
// consecutive barriers, per-packet wire latencies, event counts, and the
// Section 2.2 phase decomposition of the traced window — the simulation
// counterpart of a Myrinet line analyzer with host- and firmware-side
// probes attached.
//
// On multi-switch fabrics (-topo) the trace includes every switch hop, so
// trunk crossings are visible per packet. With -chrome the whole timeline
// is exported as Chrome trace-event JSON for Perfetto (ui.perfetto.dev).
//
// Usage:
//
//	gmtrace [-n nodes] [-alg pe|gb] [-dim D] [-level nic|host]
//	        [-barriers N] [-skip W] [-topo kind] [-radix R] [-chrome out.json]
//
// The flags build a service spec, so they take the spec codec's values and
// defaults: -n must be at least 2; -radix 0 means topo.DefaultRadix on a
// multi-switch -topo and is ignored on single, whose crossbar is sized to
// the node count; -skip 0 and -barriers 0 mean the spec defaults (5 and
// experiments.DefaultIters).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gmsim/internal/experiments"
	"gmsim/internal/service"
	"gmsim/internal/stats"
)

func main() {
	n := flag.Int("n", 4, "cluster size")
	alg := flag.String("alg", "pe", "barrier algorithm: pe or gb")
	dim := flag.Int("dim", 2, "GB tree dimension")
	level := flag.String("level", "nic", "barrier placement: nic or host")
	barriers := flag.Int("barriers", 2, "barriers to trace")
	skip := flag.Int("skip", 3, "warmup barriers before tracing")
	topoArg := flag.String("topo", "single", "switch topology: single, twoswitch, star, clos2, clos3")
	radix := flag.Int("radix", 0, "switch port count (0 = topology default)")
	chrome := flag.String("chrome", "", "write the trace as Chrome trace-event JSON to this file")
	flag.Parse()

	spec, err := service.Spec{
		Topo:   *topoArg,
		Radix:  *radix,
		Nodes:  *n,
		Level:  *level,
		Alg:    *alg,
		Dim:    *dim,
		Warmup: *skip,
		Iters:  *barriers,
	}.Canonicalize()
	var espec experiments.Spec
	if err == nil {
		espec, err = spec.Experiment()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obs := experiments.MeasureBarrierObserved(espec)
	rec := obs.Rec

	fmt.Printf("trace: %d %s-based %s barriers, %d nodes on %s fabric (after %d warmup)\n\n",
		spec.Iters, spec.Level, spec.Alg, spec.Nodes, spec.Topo, spec.Warmup)
	fmt.Print(rec.Dump())

	fmt.Println("\nevent counts:")
	counts := rec.Counts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %d\n", k, counts[k])
	}

	lats := rec.WireLatencies()
	if len(lats) > 0 {
		var s stats.Sample
		for _, l := range lats {
			s.Add(l.Latency().Micros())
		}
		fmt.Printf("\nwire latencies (us): %s\n", s.String())
	}

	// Switch-hop histogram; on one crossbar every packet takes one hop.
	hopHist := map[int]int{}
	trunk := 0
	for _, ph := range rec.PacketHopCounts() {
		hopHist[ph.Hops]++
		if ph.Hops >= 2 {
			trunk++
		}
	}
	if len(hopHist) > 0 {
		fmt.Println("\nswitch hops per packet:")
		depths := make([]int, 0, len(hopHist))
		for d := range hopHist {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		for _, d := range depths {
			fmt.Printf("  %d hop(s): %d packets\n", d, hopHist[d])
		}
		fmt.Printf("trunk crossings: %d packets traversed 2+ switches\n", trunk)
	}

	fmt.Printf("\nSection 2.2 decomposition of the traced window at rank 0 (%d spans):\n",
		rec.Phases().Len())
	fmt.Print(obs.Decomp.Table())

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open at ui.perfetto.dev)\n", *chrome)
	}
}
