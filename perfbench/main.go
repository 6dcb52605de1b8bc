// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed number of seconds from a single process and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the workload runs with spans recorded around every public
// library call, a CPU profile and runtime.MemStats deltas, followed by the
// anchor probe, and the metrics are the per-layer ones. README.md explains the
// workloads, the metrics and what each later change is predicted to move.
//
// Run it through run.sh, which builds it from the checkout's source:
//
//	bash perfbench/run.sh --workload fig5 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gmsim/internal/phase"
)

// outDir holds what a run leaves behind (span dumps, the simd state
// directory while it runs). It is relative to the checkout root, where the
// benchmark is started.
const outDir = ".bench_build/perfbench"

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"barriers_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics every workload reports with
// -trace 1. A layer the workload does not exercise is measured on the
// anchor probe (see anchor.go) when it has host time to report; counts a
// workload cannot produce read 0.
var perLayer = []metricDef{
	{"sim.events_per_barrier", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.setup_events", "count"},
	{"sim.stranded", "count"},
	{"sim.group.windows", "count"},
	{"sim.group.cross_posts", "count"},
	{"sim.group.posts_per_window", "count"},
	{"sim.group.barriers_per_s", "1/s"},
	{"network.delivered_per_barrier", "count"},
	{"network.dropped", "count"},
	{"lanai.fw_tasks_per_barrier", "count"},
	{"lanai.fw_busy_us_per_barrier", "sim_us"},
	{"lanai.sdma_per_barrier", "count"},
	{"lanai.rdma_per_barrier", "count"},
	{"mcp.barriers_completed", "count"},
	{"mcp.retrans", "count"},
	{"topo.build_ms", "ms"},
	{"cluster.new_ms", "ms"},
	{"model.tune_ms", "ms"},
	{"core.newcomm_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.chrome_ms", "ms"},
	{"trace.chrome_mb", "MB"},
	{"trace.spans_per_barrier", "count"},
	{"service.canon_us", "us"},
	{"service.execute_ms", "ms"},
	{"service.observe_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.store_put_ms", "ms"},
	{"service.store_get_ms", "ms"},
	{"service.cache_get_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.cold_p50_ms", "ms"},
	{"service.disk_p50_ms", "ms"},
	{"service.disk_p90_ms", "ms"},
	{"service.ram_p50_ms", "ms"},
	{"service.ram_p90_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.evictions", "count"},
	{"service.disk_hits", "count"},
	{"journal.replayed", "count"},
	{"runtime.allocs_per_barrier", "count"},
	{"runtime.alloc_kb_per_barrier", "KB"},
	{"runtime.gc_cycles", "count"},
	{"cpu.sim", "%"},
	{"cpu.network", "%"},
	{"cpu.lanai", "%"},
	{"cpu.mcp", "%"},
	{"cpu.gm", "%"},
	{"cpu.host", "%"},
	{"cpu.core", "%"},
	{"cpu.cluster", "%"},
	{"cpu.topo", "%"},
	{"cpu.trace", "%"},
	{"cpu.phase", "%"},
	{"cpu.service", "%"},
	{"cpu.experiments", "%"},
	{"cpu.mem", "%"},
	{"cpu.runner", "%"},
	{"cpu.go_runtime", "%"},
	{"cpu.gc", "%"},
	{"cpu.other", "%"},
	{"accuracy.nic_pe16_err_pct", "%"},
	{"accuracy.host_pe16_err_pct", "%"},
	{"accuracy.nic_pe8_72_err_pct", "%"},
	{"accuracy.host_pe8_72_err_pct", "%"},
}

// phaseCells names the two cells whose Section 2.2 decomposition is
// reported per barrier, one metric per phase plus Idle.
var phaseCells = []string{"nic_pe16", "host_pe16"}

func init() {
	for _, c := range phaseCells {
		for ph := phase.Phase(0); ph <= phase.NumPhases; ph++ {
			perLayer = append(perLayer, metricDef{"phase." + c + "." + ph.String() + "_us", "sim_us"})
		}
	}
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// ledger counts operations, checks and failures across the goroutines of a
// run. Every failure's text goes to standard error as it happens.
type ledger struct {
	mu                sync.Mutex
	attempted, failed int64
	badChecks         int64
}

// op accounts one operation (a cell, a submit); err marks it failed.
func (l *ledger) op(name string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", name, err)
	}
}

// check accounts one output check; a mismatch is a failure and makes the
// run incorrect.
func (l *ledger) check(name string, ok bool, format string, args ...any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if !ok {
		l.failed++
		l.badChecks++
		fmt.Fprintf(os.Stderr, "perfbench: CHECK %s: %s\n", name, fmt.Sprintf(format, args...))
	}
	return ok
}

// run is the state one invocation shares across its workload code.
type run struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	led      *ledger
	tr       *tracer
	metrics  map[string]float64
	workload string
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig5, fattree1024 or simd_mix")
	seed := flag.Uint64("seed", 1, "workload seed (generates the simd_mix spec stream and every shuffle)")
	seconds := flag.Int("seconds", 20, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 records spans, a CPU profile and MemStats and prints per-layer metrics")
	flag.Parse()

	workloads := map[string]func(*run){
		"fig5":        runFig5,
		"fattree1024": runFattree,
		"simd_mix":    runSimdMix,
	}
	body, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload fig5|fattree1024|simd_mix, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		led:      &ledger{},
		tr:       newTracer(*trace == 1),
		metrics:  make(map[string]float64),
		workload: *workload,
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer
		prof := startProfile()
		body(r)
		for name, v := range prof.stop() {
			r.metrics[name] = v
		}
		// The anchor probe fills the layers the workload leaves idle; the
		// workload's own measurements win where both exist.
		for name, v := range runAnchor(r) {
			if _, ok := r.metrics[name]; !ok {
				r.metrics[name] = v
			}
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	} else {
		body(r)
	}

	out := report{
		Correct:   r.led.badChecks == 0,
		Attempted: r.led.attempted,
		Failed:    r.led.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation ran")
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// rounds calls round with k = 0, 1, ..., n-1, where n is how many rounds of
// the workload's nominal duration fit in the run time, and at least one.
// The count depends only on the workload and --seconds, never on how fast
// the machine is, so every run of one seed attempts, and fails, the same
// operations; a slower machine takes longer instead.
// A round is a fixed amount of work, so the end-to-end metrics are medians
// over rounds. Peak RSS is read after the first round, so it does not grow
// with the number of rounds.
func (r *run) rounds(nominal time.Duration, round func(k int)) {
	n := max(1, int(r.seconds/nominal))
	for k := 0; k < n; k++ {
		round(k)
		if k == 0 && !r.traced {
			r.metrics["max_rss_mb"] = maxRSSMB()
		}
	}
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// nproc is the concurrency cap for client threads, connections, service
// workers and partition workers.
func nproc() int { return runtime.NumCPU() }
