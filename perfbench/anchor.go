package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gmsim/internal/cluster"
	"gmsim/internal/experiments"
	"gmsim/internal/mcp"
	"gmsim/internal/phase"
	"gmsim/internal/service"
)

// paperRefs are the paper's measured latencies (EXPERIMENTS.md) for the
// cells the accuracy metrics compare against.
var paperRefs = map[string]struct {
	metric string
	us     float64
}{
	"lanai43_n16_nic_pe":  {"accuracy.nic_pe16_err_pct", 102.14},
	"lanai43_n16_host_pe": {"accuracy.host_pe16_err_pct", 181.8},
	"lanai72_n8_nic_pe":   {"accuracy.nic_pe8_72_err_pct", 49.25},
	"lanai72_n8_host_pe":  {"accuracy.host_pe8_72_err_pct", 90.24},
}

// runAnchor is the fixed probe every traced run ends with, whatever the
// workload: one round of the Figure 5 cells (the accuracy rows, and the
// sim, setup and runtime layers for a workload without simulator cells),
// the 16-node headline run untraced and traced (tracing overhead, Chrome
// export, the Section 2.2 decomposition of the NIC-PE and host-PE cells),
// and, unless the workload is the service mix, the headline spec served
// cold, from RAM and after a restart from disk. It has its own tracer, so
// its spans never mix with the workload's.
func runAnchor(r *run) map[string]float64 {
	a := &run{seed: r.seed, traced: true, led: r.led, tr: newTracer(true), metrics: make(map[string]float64), workload: "anchor"}
	runCells(a, fig5Cells(), fig5Round)
	m := a.metrics

	headline := experiments.Spec{Cluster: cluster.DefaultConfig(16), Level: experiments.NICLevel, Alg: mcp.PE}
	var plain, traced []float64
	var obs experiments.Observed
	for i := 0; i < 5; i++ {
		sp := a.tr.begin("experiments.MeasureBarrier", 0, 0)
		experiments.MeasureBarrier(headline)
		plain = append(plain, ms(sp.end()))
		sp = a.tr.begin("experiments.MeasureBarrierObserved", 0, 0)
		obs = experiments.MeasureBarrierObserved(headline)
		traced = append(traced, ms(sp.end()))
	}
	m["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	var buf bytes.Buffer
	sp := a.tr.begin("trace.WriteChrome", 0, 0)
	err := obs.Rec.WriteChrome(&buf)
	m["trace.chrome_ms"] = ms(sp.end())
	r.led.op("anchor chrome export", err)
	m["trace.chrome_mb"] = float64(buf.Len()) / 1e6
	m["trace.spans_per_barrier"] = float64(obs.Rec.Phases().Len()) / float64(obs.Spec.Iters)
	decompose(a, "nic_pe16", obs)
	hostPE := headline
	hostPE.Level = experiments.HostLevel
	decompose(a, "host_pe16", experiments.MeasureBarrierObserved(hostPE))

	if r.workload != "simd_mix" {
		s, err := newSimdSession(a, []simdSpec{newSimdSpec(service.Spec{Nodes: 16})},
			[]item{{spec: 0}, {spec: 0, repeat: true}, {spec: 0, repeat: true}})
		r.led.op("anchor simd start", err)
		if err == nil {
			far := time.Now().Add(time.Minute)
			s.serve(1, 2, far)
			s.restart()
			s.serve(1, 3, far)
			s.shutdown()
			byTier := tierLatencies(s.recs)
			m["service.cold_p50_ms"] = median(byTier["cold"])
			m["service.ram_p50_ms"] = median(byTier["ram"])
			m["service.ram_p90_ms"] = quantile(byTier["ram"], 0.9)
			m["service.disk_p50_ms"] = median(byTier["disk"])
			m["service.disk_p90_ms"] = quantile(byTier["disk"], 0.9)
			replay(a, s, 0, 1)
			s.removeState()
		}
	}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-anchor.json", r.workload, r.seed))
	if err := a.tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing anchor spans: %v\n", err)
	}
	return a.metrics
}

// decompose reports one observed cell's critical path per timed barrier,
// recomputed through trace.Decompose, and checks it partitions the window
// exactly and matches the decomposition the measurement carried.
func decompose(a *run, cell string, obs experiments.Observed) {
	sp := a.tr.begin("trace.Decompose", 0, 0)
	d := obs.Rec.Decompose(0, obs.Start, obs.End)
	sp.end()
	a.led.check("anchor "+cell+".decomposition", d.CriticalSum() == d.Elapsed() && d.Critical == obs.Decomp.Critical,
		"critical path sums to %v over a %v window", d.CriticalSum(), d.Elapsed())
	iters := float64(obs.Spec.Iters)
	for ph := phase.Phase(0); ph <= phase.NumPhases; ph++ {
		a.metrics["phase."+cell+"."+ph.String()+"_us"] = d.Critical[ph].Micros() / iters
	}
}
