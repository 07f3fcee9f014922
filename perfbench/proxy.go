package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/realswitch"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
)

// reqHeader carries the generator's request ID through the switch to
// the backend, so the traced run can join a request's spans.
const reqHeader = "X-Bench-Req"

// backendCaps are the WRR capacities of the four loopback backends.
var backendCaps = []int{1, 2, 1, 2}

// Request kinds of the proxy workloads.
const (
	kindGet = iota
	kindPost
)

// proxyWorkload is one traffic mix through the live switch.
type proxyWorkload struct {
	getBody  int     // GET response payload, bytes
	postBody int     // POST upload, bytes (0: no POSTs)
	postFrac float64 // share of POSTs in the mix
	rate     float64 // nominal open-loop rate, req/s
	// trial is how many requests one nominal trial sends: enough for
	// trial/100 samples beyond its p99.
	trial int
	// limit is the p99 latency a ladder rung must stay within.
	limit time.Duration
}

// postReply is what a backend answers a POST with.
const postReply = 16

var (
	proxySmall = proxyWorkload{getBody: 16, rate: 2000, trial: 2000, limit: 20 * time.Millisecond}
	proxyLarge = proxyWorkload{getBody: 256 << 10, postBody: 64 << 10, postFrac: 0.25, rate: 800, trial: 2000, limit: 20 * time.Millisecond}
)

// The max_rps ladder climbs from ladderFrom times the nominal rate in
// coarse steps while rungs pass, then in fine steps from the last rate
// that passed. A rung that fails is run once more, so a lone stall of
// the host does not end the climb; maxRungs bounds the run time.
const (
	ladderFrom   = 1.5
	ladderCoarse = 1.25
	ladderFine   = 1.04
	maxRungs     = 24
)

func (w proxyWorkload) kind(rng *rand.Rand) int {
	if w.postBody > 0 && rng.Float64() < w.postFrac {
		return kindPost
	}
	return kindGet
}

// backendServer is one loopback realswitch.Backend. It dispatches GETs
// and POSTs to two Backend values of the same name, so a POST is
// answered with a short reply, and records the backend span.
type backendServer struct {
	name      string
	get, post *realswitch.Backend
	srv       *http.Server
	rec       atomic.Pointer[recorder]

	posts, badUploads, dials atomic.Int64
	postLen                  int64
}

func (b *backendServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := b.rec.Load()
	var start time.Duration
	if rec != nil {
		start = rec.now()
	}
	if r.Method == http.MethodPost {
		b.posts.Add(1)
		if n, _ := io.Copy(io.Discard, r.Body); n != b.postLen {
			b.badUploads.Add(1)
		}
		b.post.ServeHTTP(w, r)
	} else {
		b.get.ServeHTTP(w, r)
	}
	if rec != nil {
		rec.add("backend.serve", "realswitch.serve", reqID(r), start)
	}
}

func reqID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	return id
}

// tracedProxy is the switch's front handler: the Proxy itself, with its
// ServeHTTP wrapped in a span while a recorder is attached.
type tracedProxy struct {
	p   *realswitch.Proxy
	rec atomic.Pointer[recorder]
}

func (t *tracedProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	if rec == nil {
		t.p.ServeHTTP(w, r)
		return
	}
	start := rec.now()
	t.p.ServeHTTP(w, r)
	rec.add("realswitch.serve", "loadgen.request", reqID(r), start)
}

// proxyRig is the switch, its backends and the load generator's
// connections, all on loopback in this process.
type proxyRig struct {
	w        proxyWorkload
	backends []*backendServer
	front    *tracedProxy
	frontSrv *http.Server
	url      string
	clients  []*http.Client
	dials    atomic.Int64 // client connections opened
	upload   []byte
	get      expect
	post     expect
	served   []atomic.Int64 // responses per backend, by X-Soda-Node
	nextID   atomic.Uint64
	serving  sync.WaitGroup
}

// loadConns is how many connections (and goroutines) generate load: at
// most two, and never more than the host has CPUs.
func loadConns() int { return min(2, runtime.NumCPU()) }

// countingDial dials TCP and counts the connections it opens.
func countingDial(n *atomic.Int64) func(context.Context, string, string) (net.Conn, error) {
	var d net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		return d.DialContext(ctx, network, addr)
	}
}

func serve(wg *sync.WaitGroup, srv *http.Server) (*net.TCPAddr, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ln)
	}()
	return ln.Addr().(*net.TCPAddr), nil
}

// newProxyRig builds the backends and the switch, opens the client
// connections and warms every connection on the path.
func newProxyRig(w proxyWorkload) (*proxyRig, error) {
	rig := &proxyRig{w: w, upload: bytes.Repeat([]byte("u"), w.postBody), served: make([]atomic.Int64, len(backendCaps))}
	rig.get = expect{bodyLen: int64(w.getBody), nodes: make(map[string]int)}
	rig.post = expect{bodyLen: postReply, nodes: rig.get.nodes}
	cfg := svcswitch.NewConfigFile("bench")
	var entries []svcswitch.BackendEntry
	for i, c := range backendCaps {
		b := &backendServer{
			name:    fmt.Sprintf("node-%d", i+1),
			postLen: int64(w.postBody),
		}
		b.get = &realswitch.Backend{Name: b.name, Payload: bytes.Repeat([]byte("g"), w.getBody)}
		b.post = &realswitch.Backend{Name: b.name, Payload: bytes.Repeat([]byte("p"), postReply)}
		b.srv = &http.Server{Handler: b, ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				b.dials.Add(1)
			}
		}}
		addr, err := serve(&rig.serving, b.srv)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.backends = append(rig.backends, b)
		rig.get.nodes[b.name] = i
		entries = append(entries, svcswitch.BackendEntry{IP: simnet.IP(addr.IP.String()), Port: addr.Port, Capacity: c})
	}
	if err := cfg.SetEntries(entries); err != nil {
		rig.close()
		return nil, err
	}
	rig.front = &tracedProxy{p: realswitch.New(cfg)}
	rig.frontSrv = &http.Server{Handler: rig.front}
	addr, err := serve(&rig.serving, rig.frontSrv)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.url = "http://" + addr.String() + "/obj"
	for range loadConns() {
		rig.clients = append(rig.clients, &http.Client{Transport: &http.Transport{
			DialContext:         countingDial(&rig.dials),
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	// Warm every client connection and, through the switch, every
	// backend connection the two concurrent streams will use; a mix with
	// uploads warms the POST path too.
	warm := make([]arrival, 8*len(backendCaps)*len(rig.clients))
	for i := range warm {
		if w.postBody > 0 && i%2 == 1 {
			warm[i].kind = kindPost
		}
	}
	for _, s := range rig.phase(newWallClock(), warm, nil) {
		if s.err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up request: %w", s.err)
		}
	}
	return rig, nil
}

func (rig *proxyRig) close() {
	for _, c := range rig.clients {
		c.CloseIdleConnections()
	}
	if rig.front != nil {
		rig.front.p.Transport().CloseIdleConnections()
	}
	if rig.frontSrv != nil {
		rig.frontSrv.Close()
	}
	for _, b := range rig.backends {
		b.srv.Close()
	}
	rig.serving.Wait()
}

// attach sets (or, with nil, removes) the span recorder on every layer.
func (rig *proxyRig) attach(rec *recorder) {
	rig.front.rec.Store(rec)
	for _, b := range rig.backends {
		b.rec.Store(rec)
	}
}

// phase runs one open loop over the rig's connections.
func (rig *proxyRig) phase(clk clock, arr []arrival, rec *recorder) []sample {
	return openLoop(clk, arr, len(rig.clients), nil, func(conn, i int) error {
		return rig.send(conn, arr[i].kind, rec)
	})
}

// send performs one request and checks its response.
func (rig *proxyRig) send(conn, kind int, rec *recorder) error {
	id := rig.nextID.Add(1)
	var start time.Duration
	if rec != nil {
		start = rec.now()
	}
	method, want := http.MethodGet, rig.get
	var body io.Reader
	if kind == kindPost {
		method, want, body = http.MethodPost, rig.post, bytes.NewReader(rig.upload)
	}
	req, err := http.NewRequest(method, rig.url, body)
	if err != nil {
		return err
	}
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := rig.clients[conn].Do(req)
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if rec != nil {
		rec.add("loadgen.request", "", id, start)
	}
	idx, err := want.checkResponse(resp.StatusCode, resp.Header.Get("X-Soda-Node"), n)
	if err != nil {
		return err
	}
	rig.served[idx].Add(1)
	return nil
}

// proxyCounters is a reading of the counters a phase is judged by.
type proxyCounters struct {
	routed, dropped, retried, posts, badUploads, upDials int64
	served                                               []int64
}

func (rig *proxyRig) counters() proxyCounters {
	p := rig.front.p
	c := proxyCounters{
		routed: int64(p.Routed()), dropped: int64(p.Dropped()), retried: int64(p.Retried()),
		served: make([]int64, len(rig.served)),
	}
	for _, b := range rig.backends {
		c.posts += b.posts.Load()
		c.badUploads += b.badUploads.Load()
		c.upDials += b.dials.Load()
	}
	for i := range rig.served {
		c.served[i] = rig.served[i].Load()
	}
	return c
}

func (a proxyCounters) to(b proxyCounters) proxyCounters {
	d := proxyCounters{
		routed: b.routed - a.routed, dropped: b.dropped - a.dropped, retried: b.retried - a.retried,
		posts: b.posts - a.posts, badUploads: b.badUploads - a.badUploads, upDials: b.upDials - a.upDials,
		served: make([]int64, len(a.served)),
	}
	for i := range d.served {
		d.served[i] = b.served[i] - a.served[i]
	}
	return d
}

// proxyPhase is one measured open-loop phase.
type proxyPhase struct {
	samples          []sample
	wall             time.Duration
	proc             procDelta
	memPeak, heapMB  float64
	ctr              proxyCounters
	sentPosts, fails int
	bytes            int64
}

// measure runs arr through the rig and checks the phase's outputs into
// rep.
func (rig *proxyRig) measure(arr []arrival, rec *recorder, rep *report, what string) proxyPhase {
	// Every phase starts from a collected heap, so one phase's garbage
	// does not land in the next one's latencies.
	runtime.GC()
	before := rig.counters()
	mem := startMemSampler()
	p0 := readProc()
	clk := newWallClock()
	ss := rig.phase(clk, arr, rec)
	wall := clk.Now()
	p1 := readProc()
	peak, heap := mem.Stop()
	ph := proxyPhase{samples: ss, wall: wall, proc: p0.to(p1), memPeak: peak, heapMB: heap, ctr: before.to(rig.counters())}
	var firstErr error
	for i, s := range ss {
		post := arr[i].kind == kindPost
		if post {
			ph.sentPosts++
		}
		if s.err != nil {
			ph.fails++
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		if post {
			ph.bytes += int64(rig.w.postBody)
		} else {
			ph.bytes += int64(rig.w.getBody)
		}
	}
	rep.count(len(ss), ph.fails)
	if firstErr != nil {
		rep.check(what+" responses", fmt.Errorf("%d of %d failed, first: %w", ph.fails, len(ss), firstErr))
	}
	rep.check(what+" POSTs", checkPostsOnce(int64(ph.sentPosts), ph.ctr.posts, ph.ctr.badUploads))
	rep.check(what+" WRR split", checkWRR(ph.ctr.served, backendCaps))
	if d := rig.dials.Load(); d > int64(runtime.NumCPU()) {
		rep.check("load connections", fmt.Errorf("%d client connections opened, more than nproc %d", d, runtime.NumCPU()))
	}
	return ph
}

// timed is the timed run of a proxy workload: the nominal-rate phase
// gives the latency, CPU and memory figures, then the rate ladder gives
// max_rps.
func (w proxyWorkload) timed(cfg runConfig, rep *report) error {
	rig, setup, err := setupRepeated(func() (*proxyRig, error) { return newProxyRig(w) }, (*proxyRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	// The nominal phase is back-to-back trials; every metric is the
	// median over trials, so a slow spell of the host moves one trial and
	// not the figure.
	rng := cfg.rng(1)
	nominal := cfg.dur(0.6)
	trials := max(1, int(nominal.Seconds()*w.rate/float64(w.trial)))
	var p50s, p99s, cpus, lat, lagMs []float64
	var memPeak float64
	var bytes int64
	var wall time.Duration
	for i := 0; i < trials; i++ {
		arr := poissonArrivals(rng, w.rate, w.trial, w.kind)
		ph := rig.measure(arr, nil, rep, "nominal")
		l := latenciesMs(ph.samples)
		if tailLevel(len(l)) < 0.99 {
			return fmt.Errorf("nominal trial too short for a p99: %d samples", len(l))
		}
		p50s = append(p50s, median(l))
		p99s = append(p99s, quantile(l, 0.99))
		cpus = append(cpus, us(ph.proc.cpu)/float64(max(len(ph.samples)-ph.fails, 1)))
		lat = append(lat, l...)
		lagMs = append(lagMs, lags(ph.samples)...)
		memPeak = max(memPeak, ph.memPeak)
		bytes += ph.bytes
		wall += ph.wall
	}
	rep.set("setup_s", setup, "s")
	rep.set("p50_ms", median(p50s), "ms")
	rep.set("p99_ms", median(p99s), "ms")
	rep.set("cpu_us_per_req", median(cpus), "us")
	rep.set("mem_peak_mb", memPeak, "MB")
	rep.printf("  p50_ms, p99_ms and cpu_us_per_req are medians over %d trials at %.0f req/s:", trials, w.rate)
	rep.printf("    p50 %s", fmtList(p50s))
	rep.printf("    p99 %s", fmtList(p99s))
	rep.printf("    cpu %s", fmtList(cpus))
	rep.printf("  %s", timing("latency from due", lat, "ms"))
	rep.printf("  %s", timing("generator lag", lagMs, "ms"))
	rep.printf("%-30s %.6g MB/s at %.0f req/s nominal", "goodput_mb_s", float64(bytes)/(1<<20)/wall.Seconds(), w.rate)

	maxRPS := w.ladder(rng, rig, cfg.dur(0.025), rep)
	rep.set("max_rps", maxRPS, "1/s")
	attempted := rep.attempted
	rep.printf("%-30s %.6g (%d failed of %d)", "error_rate", float64(rep.failed)/float64(attempted), rep.failed, attempted)
	return nil
}

// ladder returns the highest rate at which a rung of length d keeps p99
// within the limit, does not build a backlog and fails no request.
func (w proxyWorkload) ladder(rng *rand.Rand, rig *proxyRig, d time.Duration, rep *report) float64 {
	rungs := 0
	try := func(rate float64) bool {
		for attempt := 0; attempt < 2 && rungs < maxRungs; attempt++ {
			rungs++
			arr := poissonArrivals(rng, rate, int(rate*d.Seconds()), w.kind)
			r := rig.measure(arr, nil, rep, fmt.Sprintf("ladder %.0f req/s", rate))
			p99 := quantile(latenciesMs(r.samples), 0.99)
			grew := backlogGrew(r.samples, w.limit/2)
			pass := r.fails == 0 && p99 <= ms(w.limit) && !grew
			rep.printf("  rung %6.0f req/s: p99 %.3g ms, backlog grew %v, failed %d, pass %v", rate, p99, grew, r.fails, pass)
			if pass {
				return true
			}
		}
		return false
	}
	best := 0.0
	rate := w.rate * ladderFrom
	for try(rate) {
		best = rate
		rate *= ladderCoarse
	}
	if best > 0 {
		for rate = best * ladderFine; try(rate); rate *= ladderFine {
			best = rate
		}
	}
	return best
}

// traced is the traced run of a proxy workload: an untraced and a traced
// phase over the same arrivals, the second recording a span around the
// generator's request, the switch's ServeHTTP and the backend's handler.
func (w proxyWorkload) traced(cfg runConfig, rep *report) error {
	rig, err := newProxyRig(w)
	if err != nil {
		return err
	}
	defer rig.close()
	arr := poissonArrivals(cfg.rng(1), w.rate, int(w.rate*cfg.dur(0.5).Seconds()), w.kind)
	base := rig.measure(arr, nil, rep, "untraced")
	rec := newRecorder(4*len(arr) + 64)
	rig.attach(rec)
	tr := rig.measure(arr, rec, rep, "traced")
	rig.attach(nil)
	spans := rec.recorded()
	self := selfTimes(spans)
	if err := writeSpans(spanFile(cfg), spans, self); err != nil {
		return err
	}
	if n := rec.lost.Load(); n > 0 {
		rep.check("span buffer", fmt.Errorf("%d spans lost", n))
	}

	done := float64(max(len(base.samples)-base.fails, 1))
	p50 := median(latenciesMs(base.samples))
	p50t := median(latenciesMs(tr.samples))
	rep.set("loadgen.lag_p99_ms", quantile(lags(base.samples), 0.99), "ms")
	rep.set("loadgen.trace_overhead_pct", 100*(p50t-p50)/p50, "%")
	rep.set("proc.alloc_kb_per_req", base.proc.allocBytes/1024/done, "KB")
	rep.set("proc.gc_cpu_frac", base.proc.gcFrac, "ratio")
	rep.set("proc.heap_peak_mb", base.heapMB, "MB")

	serve, serveSelf := layerTimes(spans, self, "realswitch.serve")
	backend, _ := layerTimes(spans, self, "backend.serve")
	_, clientSelf := layerTimes(spans, self, "loadgen.request")
	rep.set("realswitch.serve_p50_us", median(serve), "us")
	rep.set("realswitch.serve_p99_us", quantile(serve, 0.99), "us")
	rep.set("realswitch.self_p50_us", median(serveSelf), "us")
	rep.set("realswitch.routed", float64(tr.ctr.routed), "count")
	rep.set("realswitch.dropped", float64(tr.ctr.dropped), "count")
	rep.set("realswitch.retried", float64(tr.ctr.retried), "count")
	rep.set("realswitch.upstream_dials", float64(tr.ctr.upDials), "count")
	rep.set("realswitch.wrr_skew", wrrSkew(tr.ctr.served, backendCaps), "ratio")
	rep.set("backend.serve_p50_us", median(backend), "us")
	rep.printf("  %s", timing("realswitch.serve", serve, "us"))
	rep.printf("  %s", timing("realswitch self", serveSelf, "us"))
	rep.printf("  %s", timing("backend.serve", backend, "us"))
	rep.printf("  %s", timing("client outside switch", clientSelf, "us"))
	rep.printf("  switch self p50 + backend p50 = %.4g us of serve p50 %.4g us",
		median(serveSelf)+median(backend), median(serve))
	rep.printf("  %d spans written to %s", len(spans), spanFile(cfg))
	return nil
}
