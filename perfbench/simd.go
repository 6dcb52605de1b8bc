package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"gmsim/internal/experiments"
	"gmsim/internal/service"
)

// simdSpec is one distinct spec of the stream, with what the client needs
// to post it and to check the answer.
type simdSpec struct {
	name  string
	body  []byte // the posted JSON
	canon service.Spec
	hash  string
}

// newSimdSpec prepares a generated spec for posting. Generated specs are
// valid by construction, so an error is a bug here.
func newSimdSpec(s service.Spec) simdSpec {
	canon, err := s.Canonicalize()
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated an invalid spec %+v: %v", s, err))
	}
	hash, err := canon.Hash()
	if err != nil {
		panic(err)
	}
	body, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	name := fmt.Sprintf("%s/%s/%s/n%d/%s", canon.Level, canon.Alg, canon.NIC, canon.Nodes, canon.FaultPlan)
	return simdSpec{name: name, body: body, canon: canon, hash: hash}
}

// item is one request of the stream: the first submission of a spec, or a
// repeat of an earlier one.
type item struct {
	spec   int
	repeat bool
}

// Stream shape: a round is two server lives on one state directory, each
// introducing lifeSpecs new specs; every new spec is followed by
// simdRepeats repeats of earlier specs of the round, half drawn from the
// last three (likely still in RAM) and half from the whole round (likely
// evicted to disk, or on disk only after the restart). The work per round
// is fixed, so memory held by one round does not grow with throughput.
const (
	lifeSpecs   = 160
	simdRepeats = 4
	// setupReps is how many times each server life is constructed; setup_s
	// takes the median over every round's constructions of each life.
	setupReps = 41
	// simdRoundNominal is about how long a round takes on a 2-core machine
	// (10-13 s), so a 20-second run serves two rounds.
	simdRoundNominal = 10 * time.Second
)

// simdRound generates round k of the seeded stream and the item index at
// which its second life starts. The first spec is the Figure 5 headline;
// the rest cycle through every combination of placement, algorithm, NIC
// and fault plan in seeded order, with node counts dealt evenly over each
// cycle and seeded GB dimensions, fault-plan seeds and timed iteration
// counts. The iteration counts (40-60, against the service default of 200)
// keep each cold result's trace at a few MB, which bounds the benchmark's
// memory and disk writes while a life's working set still outgrows the
// default 256 MB RAM tier.
func simdRound(seed uint64, k int) ([]simdSpec, []item, int64) {
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	var specs []simdSpec
	seen := make(map[string]bool)
	add := func(s service.Spec) {
		sp := newSimdSpec(s)
		if !seen[sp.hash] {
			seen[sp.hash] = true
			specs = append(specs, sp)
		}
	}
	add(service.Spec{Nodes: 16})
	type shape struct{ level, alg, nic, plan string }
	var shapes []shape
	for _, level := range []string{"nic", "host"} {
		for _, alg := range []string{"pe", "gb"} {
			for _, nic := range []string{"4.3", "7.2"} {
				for _, plan := range []string{service.PlanNone, service.PlanChaos, service.PlanCrash} {
					shapes = append(shapes, shape{level, alg, nic, plan})
				}
			}
		}
	}
	nodes := make([]int, len(shapes))
	for i := range nodes {
		nodes[i] = []int{8, 12, 16}[i%3]
	}
	for len(specs) < 2*lifeSpecs {
		rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for i, sh := range shapes {
			s := service.Spec{
				Nodes: nodes[i], Iters: 40 + rng.IntN(21),
				NIC: sh.nic, Level: sh.level, Alg: sh.alg, FaultPlan: sh.plan,
			}
			if sh.alg == "gb" {
				s.Dim = 2 + rng.IntN(3)
			}
			if sh.plan != service.PlanNone {
				s.Seed = 1 + rng.Int64N(1<<30)
			}
			add(s)
		}
	}
	specs = specs[:2*lifeSpecs]

	var items []item
	var second int64
	for k := range specs {
		if k == lifeSpecs {
			second = int64(len(items))
		}
		items = append(items, item{spec: k})
		for j := 0; k > 0 && j < simdRepeats; j++ {
			target := rng.IntN(k)
			if rng.IntN(2) == 0 {
				target = k - 1 - rng.IntN(min(k, 3))
			}
			items = append(items, item{spec: target, repeat: true})
		}
	}
	return specs, items, second
}

// submitRec is one answered submit.
type submitRec struct {
	idx  int64
	tier string // cold, disk or ram
	lat  time.Duration
	at   time.Time // when the answer arrived
}

// simdSession is an in-process simd: service.NewServer on a state
// directory inside the checkout, mounted on a loopback listener, driven by
// closed-loop clients over one shared request cursor.
type simdSession struct {
	r     *run
	dir   string
	specs []simdSpec
	items []item
	next  atomic.Int64

	// firstDone[k] closes once spec k's first submission has answered; a
	// repeat waits for it, so a repeat is always a cache or store hit.
	firstDone []chan struct{}
	firstOnce []sync.Once

	// gate is held shared by every request and exclusively by a restart.
	// hitMu serializes the requests expected to hit, so the cache and
	// store counters read around one of them move for it alone (cold
	// requests never move those counters).
	gate    sync.RWMutex
	hitMu   sync.Mutex
	srv     *service.Server
	handler atomic.Value // http.Handler of the live server
	hs      *http.Server
	served  chan struct{}
	url     string
	client  *http.Client

	setups                       [][]float64 // NewServer seconds, per life
	evictions, diskHits, replays int64

	mu      sync.Mutex
	recs    []submitRec
	bodies  map[int][]byte // first answer per spec
	coldLat map[int]time.Duration
}

func newSimdSession(r *run, specs []simdSpec, items []item) (*simdSession, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("simd-%d-%d", os.Getpid(), time.Now().UnixNano()))
	s := &simdSession{
		r: r, dir: dir, specs: specs, items: items,
		firstDone: make([]chan struct{}, len(specs)),
		firstOnce: make([]sync.Once, len(specs)),
		served:    make(chan struct{}),
		bodies:    make(map[int][]byte),
		coldLat:   make(map[int]time.Duration),
	}
	for i := range s.firstDone {
		s.firstDone[i] = make(chan struct{})
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeServer()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.handler.Load().(http.Handler).ServeHTTP(w, req)
	})}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}}
	return s, nil
}

// open constructs the server setupReps times on the state directory,
// keeping the last one live; each construction replays the journal.
// Setup is the CPU time of the constructing thread: a construction's wall
// time is mostly one fsync of the compacted journal, and on a shared
// virtual disk that latency moves severalfold between identical runs.
func (s *simdSession) open() error {
	// Collect the previous life's garbage first (its cache and job records
	// run to a GB), so setup time does not carry its collection.
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var times []float64
	for i := 0; i < setupReps; i++ {
		sp := s.r.tr.begin("service.NewServer", 0, 0)
		cpu := threadCPU()
		srv, err := service.NewServer(service.Config{Dir: s.dir, Workers: nproc()})
		times = append(times, (threadCPU() - cpu).Seconds())
		sp.end()
		if err != nil {
			return err
		}
		if i < setupReps-1 {
			if err := shutdownServer(srv); err != nil {
				return err
			}
			continue
		}
		s.srv = srv
		s.handler.Store(srv.Handler())
	}
	s.setups = append(s.setups, times)
	return nil
}

// threadCPU returns the CPU time the calling OS thread has used; the
// caller locks its goroutine to the thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func shutdownServer(srv *service.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	return srv.Close()
}

// closeServer drains the live server and banks its lifetime counters.
func (s *simdSession) closeServer() {
	if err := shutdownServer(s.srv); err != nil {
		s.r.led.op("simd drain", err)
	}
	_, _, ev := s.srv.Cache().Stats()
	s.evictions += ev
	reg := s.srv.Registry()
	s.diskHits += reg.Get("service.cache.disk_hits")
	s.replays += reg.Get("service.journal.replayed")
}

// restart replaces the live server with a new one on the same directory,
// between requests.
func (s *simdSession) restart() {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.closeServer()
	err := s.open()
	s.r.led.op("simd restart", err)
	if err != nil {
		panic(err) // no server to continue against
	}
}

// shutdown stops the server, the listener and the client.
func (s *simdSession) shutdown() {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.closeServer()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}

// removeState deletes the server's state directory.
func (s *simdSession) removeState() {
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", s.dir, err)
	}
}

// serve runs clients closed-loop over the stream until the cursor reaches
// limit or the deadline passes, and waits for them.
func (s *simdSession) serve(clients int, limit int64, deadline time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := s.next.Load()
				if i >= limit {
					return
				}
				if !s.next.CompareAndSwap(i, i+1) {
					continue
				}
				it := s.items[i]
				if it.repeat {
					wait := time.NewTimer(time.Until(deadline))
					select {
					case <-s.firstDone[it.spec]:
						wait.Stop()
					case <-wait.C:
						return
					}
				}
				s.submit(i, it)
			}
		}()
	}
	wg.Wait()
}

// submit posts one request synchronously, classifies its tier from the
// X-Cache header and the cache/store counters, and checks the answer.
func (s *simdSession) submit(idx int64, it item) {
	sp := s.specs[it.spec]
	if !it.repeat {
		defer s.firstOnce[it.spec].Do(func() { close(s.firstDone[it.spec]) })
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if it.repeat {
		s.hitMu.Lock()
		defer s.hitMu.Unlock()
	}
	ram0, _, _ := s.srv.Cache().Stats()
	disk0 := s.srv.Registry().Get("service.cache.disk_hits")
	span := s.r.tr.begin("simd.submit", 0, idx+1)
	body, cached, err := s.post(sp.body)
	t1 := time.Now()
	lat := t1.Sub(span.start)
	ram1, _, _ := s.srv.Cache().Stats()
	disk1 := s.srv.Registry().Get("service.cache.disk_hits")

	name := fmt.Sprintf("submit %d %s", idx, sp.name)
	s.r.led.op(name, err)
	if err != nil {
		return
	}
	tier := "cold"
	switch {
	case cached && disk1 > disk0:
		tier = "disk"
	case cached && ram1 > ram0:
		tier = "ram"
	case cached:
		tier = "unknown"
	}
	if s.r.tr.on {
		span.name = "simd.submit." + tier
		span.endAt(span.start, t1)
	}
	s.r.led.check(name+".tier", (tier == "cold") != it.repeat, "tier %s for a %s", tier, map[bool]string{true: "repeat", false: "first submission"}[it.repeat])

	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, submitRec{idx: idx, tier: tier, lat: lat, at: t1})
	if first, ok := s.bodies[it.spec]; ok {
		s.r.led.check(name+".body", bytes.Equal(first, body), "answer differs from the first answer for %s", sp.hash)
		return
	}
	s.bodies[it.spec] = body
	if tier == "cold" {
		s.coldLat[it.spec] = lat
	}
	checkAnswer(s.r, name, sp, it.spec == 0, body)
}

// post sends one sync submit and returns the body and whether the server
// answered from its cache.
func (s *simdSession) post(spec []byte) ([]byte, bool, error) {
	resp, err := s.client.Post(s.url+"/v1/runs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache") == "hit", nil
}

// checkAnswer checks a result body: it decodes, echoes the spec's hash, the
// headline keeps its pinned mean, and a fail-free NIC-based run completed
// nodes × (warmup + iters) firmware barriers.
func checkAnswer(r *run, name string, sp simdSpec, headline bool, body []byte) {
	var res service.Result
	err := json.Unmarshal(body, &res)
	if !r.led.check(name+".decode", err == nil && res.Hash == sp.hash, "bad result (%v): %.200s", err, body) {
		return
	}
	if headline {
		got := strconv.FormatFloat(res.MeanMicros, 'g', -1, 64)
		want := pins["lanai43_n16_nic_pe"]
		r.led.check(name+".mean", got == want, "mean_us %s, pinned %s", got, want)
	}
	c := sp.canon
	if c.Level == "nic" && c.FaultPlan == service.PlanNone {
		want := int64(c.Nodes * (c.Warmup + c.Iters))
		r.led.check(name+".barriers", res.Barriers == want, "%d barriers, want %d", res.Barriers, want)
	}
}

// tierLatencies returns the answered submits' latencies in ms by tier.
func tierLatencies(recs []submitRec) map[string][]float64 {
	out := make(map[string][]float64)
	for _, rec := range recs {
		out[rec.tier] = append(out[rec.tier], ms(rec.lat))
	}
	return out
}

func runSimdMix(r *run) {
	// A round that has not finished by then is cut, so the run still ends
	// within its 180-second budget on a slow machine.
	cutoff := time.Now().Add(150 * time.Second)
	var setup1, setup2, rates, opRates, evictions, diskHits, replays []float64
	var recs []submitRec
	r.rounds(simdRoundNominal, func(k int) {
		specs, items, second := simdRound(r.seed, k)
		s, err := newSimdSession(r, specs, items)
		r.led.op("simd start", err)
		if err != nil {
			return
		}
		t := time.Now()
		s.serve(nproc(), second, cutoff)
		serving := time.Since(t)
		s.restart()
		t = time.Now()
		s.serve(nproc(), int64(len(items)), cutoff)
		serving += time.Since(t)
		s.shutdown()

		setup1 = append(setup1, s.setups[0]...)
		setup2 = append(setup2, s.setups[1]...)
		// Timed barriers over the summed cold latency: host and NIC specs
		// differ about threefold in latency per barrier and make up about
		// half the stream each, so a median over submits would jump
		// between the two groups with the seed's exact mix.
		var coldIters int64
		var coldTime time.Duration
		for k, lat := range s.coldLat {
			coldIters += int64(specs[k].canon.Iters)
			coldTime += lat
		}
		rates = append(rates, float64(coldIters)/coldTime.Seconds())
		opRates = append(opRates, float64(len(s.recs))/serving.Seconds())
		evictions = append(evictions, float64(s.evictions))
		diskHits = append(diskHits, float64(s.diskHits))
		replays = append(replays, float64(s.replays))
		recs = append(recs, s.recs...)
		if r.traced && k == 0 {
			replay(r, s, second, replayColds)
		}
		s.removeState()
	})

	m := r.metrics
	if !r.traced {
		m["setup_s"] = median(setup1) + median(setup2)
		m["barriers_per_s"] = median(rates)
		m["ops_per_s"] = median(opRates)
		return
	}
	byTier := tierLatencies(recs)
	m["service.cold_p50_ms"] = median(byTier["cold"])
	m["service.disk_p50_ms"] = median(byTier["disk"])
	m["service.disk_p90_ms"] = quantile(byTier["disk"], 0.9)
	m["service.ram_p50_ms"] = median(byTier["ram"])
	m["service.ram_p90_ms"] = quantile(byTier["ram"], 0.9)
	m["service.hit_ratio"] = float64(len(byTier["disk"])+len(byTier["ram"])) / float64(len(recs))
	m["service.evictions"] = median(evictions)
	m["service.disk_hits"] = median(diskHits)
	m["journal.replayed"] = median(replays)
}

// replayColds bounds the traced replay: the window of the stream holding
// this many first submissions.
const replayColds = 8

// replay re-runs a window of the served stream, starting at item from,
// through the steps the server took for each request, so each step's host
// time shows: Canonicalize and Hash, then by the tier the request was
// served from, Cache.Get (RAM), Store.Get on the server's store (disk), or
// Execute (with its MeasureBarrierObserved and WriteChrome parts timed
// again alone), the result encoding and Store.Put (cold). Spans of one
// request share its ID. Call after shutdown and before removeState.
func replay(r *run, s *simdSession, from int64, colds int) {
	served, err := service.OpenStore(filepath.Join(s.dir, "store"))
	r.led.op("replay open store", err)
	if err != nil {
		return
	}
	scratch, err := service.OpenStore(filepath.Join(s.dir, "replay"))
	r.led.op("replay open scratch store", err)
	if err != nil {
		return
	}
	tierOf := make(map[int64]string)
	for _, rec := range s.recs {
		tierOf[rec.idx] = rec.tier
	}
	cache := service.NewCache(service.DefaultCacheBytes)
	m := r.metrics
	var canon, cacheGet, storeGet, exec, observe, chrome, chromeMB, encode, put, wait []float64
	var barriers, retrans, delivered, dropped, fwTasks, fwBusy, sdma, rdma, episodes, spans, timed int64
	var mallocs, allocBytes uint64
	var gcCycles uint32
	seen := 0
	for idx := from; idx < int64(len(s.items)); idx++ {
		it := s.items[idx]
		if !it.repeat {
			if seen == colds {
				break
			}
			seen++
		}
		tier, ok := tierOf[idx]
		if !ok {
			continue // failed, or never sent before the deadline
		}
		req := -(idx + 1)
		root := r.tr.begin("replay.request", 0, req)
		sp := s.specs[it.spec]
		var raw service.Spec
		if err := json.Unmarshal(sp.body, &raw); err != nil {
			r.led.op("replay decode", err)
			continue
		}
		step := r.tr.begin("service.Spec.Canonicalize", root.id, req)
		c, err := raw.Canonicalize()
		canon = append(canon, float64(step.end().Nanoseconds())/1e3)
		if err != nil {
			r.led.op("replay canonicalize", err)
			continue
		}
		step = r.tr.begin("service.Spec.Hash", root.id, req)
		hash, err := c.Hash()
		step.end()
		if err != nil {
			r.led.op("replay hash", err)
			continue
		}
		switch tier {
		case "ram":
			if _, ok := cache.Get(hash); !ok {
				// Cached before the window began: load it untimed.
				if e, ok := served.Get(hash); ok {
					cache.Put(hash, e)
				}
			}
			step = r.tr.begin("service.Cache.Get", root.id, req)
			_, ok := cache.Get(hash)
			d := step.end()
			r.led.check("replay "+sp.name+".ram", ok, "not in the replay cache")
			cacheGet = append(cacheGet, float64(d.Nanoseconds())/1e3)
			root.end()
			continue
		case "disk":
			step = r.tr.begin("service.Store.Get", root.id, req)
			e, ok := served.Get(hash)
			d := step.end()
			r.led.check("replay "+sp.name+".disk", ok, "not in the server's store")
			storeGet = append(storeGet, ms(d))
			cache.Put(hash, e)
			root.end()
			continue
		}

		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		step = r.tr.begin("service.Execute", root.id, req)
		out, err := safeExecute(c)
		d := step.end()
		runtime.ReadMemStats(&mem1)
		r.led.op("replay execute "+sp.name, err)
		if err != nil {
			root.end()
			continue
		}
		if !service.FailStop(c.FaultPlan) {
			exec = append(exec, ms(d)) // the same runs observe_ms times alone
		}
		if lat, ok := s.coldLat[it.spec]; ok {
			wait = append(wait, ms(lat-d))
		}
		mallocs += mem1.Mallocs - mem0.Mallocs
		allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		gcCycles += mem1.NumGC - mem0.NumGC
		episodes += int64(c.Warmup + c.Iters)
		barriers += out.Result.Barriers
		retrans += out.Result.Retrans
		if out.Metrics != nil {
			delivered += out.Metrics.Get("fabric.delivered")
			dropped += out.Metrics.Get("fabric.dropped")
			fwTasks += out.Metrics.Get("fw.tasks")
			fwBusy += out.Metrics.Get("fw.busy_ns")
			sdma += out.Metrics.Get("sdma.transfers")
			rdma += out.Metrics.Get("rdma.transfers")
		}
		if !service.FailStop(c.FaultPlan) {
			espec, err := c.Experiment()
			if err == nil {
				step = r.tr.begin("experiments.MeasureBarrierObserved", root.id, req)
				obs := experiments.MeasureBarrierObserved(espec)
				observe = append(observe, ms(step.end()))
				var buf bytes.Buffer
				step = r.tr.begin("trace.WriteChrome", root.id, req)
				err = obs.Rec.WriteChrome(&buf)
				chrome = append(chrome, ms(step.end()))
				chromeMB = append(chromeMB, float64(buf.Len())/1e6)
				spans += int64(obs.Rec.Phases().Len())
				timed += int64(c.Iters)
			}
			r.led.op("replay observe "+sp.name, err)
		}

		step = r.tr.begin("encode", root.id, req)
		result, err := json.Marshal(out.Result)
		encode = append(encode, ms(step.end()))
		if err != nil {
			r.led.op("replay encode", err)
			root.end()
			continue
		}
		r.led.check("replay "+sp.name+".body", bytes.Equal(result, s.bodies[it.spec]),
			"replayed result differs from the served one for %s", hash)
		entry := service.Entry{Result: result, Trace: out.Trace}
		step = r.tr.begin("service.Store.Put", root.id, req)
		err = scratch.Put(hash, entry)
		put = append(put, ms(step.end()))
		r.led.op("replay store put", err)
		cache.Put(hash, entry)
		root.end()
	}
	m["service.canon_us"] = median(canon)
	m["service.cache_get_us"] = median(cacheGet)
	m["service.store_get_ms"] = median(storeGet)
	m["service.execute_ms"] = median(exec)
	m["service.observe_ms"] = median(observe)
	m["service.encode_ms"] = median(encode)
	m["service.store_put_ms"] = median(put)
	m["service.queue_wait_ms"] = median(wait)
	m["trace.chrome_ms"] = median(chrome)
	m["trace.chrome_mb"] = median(chromeMB)
	if timed > 0 {
		m["trace.spans_per_barrier"] = float64(spans) / float64(timed)
	}
	if episodes > 0 {
		ep := float64(episodes)
		m["network.delivered_per_barrier"] = float64(delivered) / ep
		m["network.dropped"] = float64(dropped)
		m["lanai.fw_tasks_per_barrier"] = float64(fwTasks) / ep
		m["lanai.fw_busy_us_per_barrier"] = float64(fwBusy) / 1000 / ep
		m["lanai.sdma_per_barrier"] = float64(sdma) / ep
		m["lanai.rdma_per_barrier"] = float64(rdma) / ep
		m["mcp.barriers_completed"] = float64(barriers)
		m["mcp.retrans"] = float64(retrans)
		m["runtime.allocs_per_barrier"] = float64(mallocs) / ep
		m["runtime.alloc_kb_per_barrier"] = float64(allocBytes) / 1024 / ep
		m["runtime.gc_cycles"] = float64(gcCycles)
	}
}

// safeExecute is service.Execute with a panic returned as an error.
func safeExecute(c service.Spec) (out service.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = errors.New(fmt.Sprint(p))
		}
	}()
	return service.Execute(c)
}
