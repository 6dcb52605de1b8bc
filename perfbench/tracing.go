package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call. Spans of one simd request share Req; Parent links a
// span to the one that caused it (0 for roots).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. When off, begin/end
// still time the call (the end-to-end numbers use those durations) but
// record nothing.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// openSpan is a begun span; end records it.
type openSpan struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin opens a span named after the layer call it wraps.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	var id int64
	if t.on {
		id = t.ids.Add(1)
	}
	return openSpan{tr: t, id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (o openSpan) end() time.Duration {
	now := time.Now()
	if o.tr.on {
		o.endAt(o.start, now)
	}
	return now.Sub(o.start)
}

// record adds a span whose bounds were taken inside a simulated process,
// where a begin/end pair cannot wrap the call.
func (t *tracer) record(name string, start, end time.Time) {
	if !t.on || start.IsZero() || end.IsZero() {
		return
	}
	t.begin(name, 0, 0).endAt(start, end)
}

// endAt records the span with explicit bounds (tracing on only).
func (o openSpan) endAt(start, end time.Time) {
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		StartNs: start.Sub(o.tr.t0).Nanoseconds(), EndNs: end.Sub(o.tr.t0).Nanoseconds(),
	})
	o.tr.mu.Unlock()
}

// total returns the summed duration of the spans named name, in ms.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	return sum
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profile is a running CPU profile.
type profile struct{ buf bytes.Buffer }

func startProfile() *profile {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
	}
	return p
}

// cpuModules are the gmsim/internal packages the profile attributes
// separately; samples in any other package count as cpu.other.
var cpuModules = []string{
	"sim", "network", "lanai", "mcp", "gm", "host", "core", "cluster", "topo",
	"trace", "phase", "service", "experiments", "mem", "runner",
}

// stop ends the profile and returns each bucket's share of the samples in
// percent: cpu.<module> by the innermost gmsim/internal frame, cpu.gc for
// collector work, cpu.go_runtime for scheduler and channel frames.
func (p *profile) stop() map[string]float64 {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: decoding cpu profile: %v\n", err)
		return nil
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		counts[bucket(s.frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64)
	for _, m := range append(cpuModules, "go_runtime", "gc", "other") {
		if total > 0 {
			out["cpu."+m] = 100 * float64(counts[m]) / float64(total)
		}
	}
	return out
}

// schedFrames mark a sample as goroutine handoff: the channel and park
// machinery every simulated process switch goes through.
var schedFrames = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.gopark", "runtime.goready",
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.selectgo", "runtime.lock2", "runtime.unlock2", "runtime.casgstatus",
	"runtime.ready", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.goexit0", "runtime.newproc", "runtime.mstart",
}

// bucket assigns one sample (frames leaf first) to a cpu bucket.
func bucket(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") ||
			strings.HasPrefix(f, "runtime.gcStart") || strings.HasPrefix(f, "runtime.markroot") {
			return "gc"
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		for _, f := range frames {
			for _, s := range schedFrames {
				if f == s {
					return "go_runtime"
				}
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "gmsim/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			for _, m := range cpuModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
	}
	return "other"
}

// stack is one profile sample: its frames, leaf first, and its count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what bucketing needs: samples, locations,
// functions and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := make(map[uint64][]uint64) // location id -> function ids, innermost first
	funcName := make(map[uint64]int64)    // function id -> string index
	var strs []string

	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						return eachVarint(b, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					take := func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					}
					if b != nil {
						return eachVarint(b, take)
					}
					take(v)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if idx := funcName[fn]; idx >= 0 && idx < int64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
