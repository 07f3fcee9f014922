package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accounting"
	"repro/internal/api"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/workload"
)

// Platform workload shape. The churn and serve phases run a fixed
// amount of work per second of budget, so the virtual-time results are
// a function of the seed and the budget alone.
const (
	platformHosts  = 8
	credential     = "key"
	imageName      = "web"
	imageMB        = 36 // plus up to 8 MB drawn from the seed
	churnCreateN   = 4
	churnGrowN     = 6
	churnShrinkN   = 2
	churnNameCount = 4 // service names the churn reuses in turn
	serveServices  = 2
	serveN         = 2
	cyclesPerSec   = 150 // churn cycles per second of the churn share
	readRate       = 100 // status/list/metrics polls per wall second
	readHorizon    = 120 // seconds of poll arrivals drawn per churn
	vreqRate       = 400 // virtual req/s offered to each serve service
	serveVSPerSec  = 100 // virtual seconds served per second of the serve share
	serveStep      = 100 * sim.Millisecond
	vreqTimeout    = 5 * sim.Second
	churnTrials    = 9
	churnShare     = 0.5 // of the budget
	serveShare     = 0.5
)

// Operation kinds of the churn phase, in cycle order, and of the poller.
const (
	opCreate = iota
	opGrow
	opShrink
	opDelete
	opStatus
	opList
	opMetrics
)

var opNames = []string{"create", "resize", "resize", "delete", "status", "list", "metrics"}

// tracedAPI is the control plane's HTTP handler, wrapped to count calls
// in flight and to record a span around each while a recorder is
// attached.
type tracedAPI struct {
	h        http.Handler
	rec      atomic.Pointer[recorder]
	inflight atomic.Int64
}

func (a *tracedAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.inflight.Add(1)
	defer a.inflight.Add(-1)
	rec := a.rec.Load()
	if rec == nil {
		a.h.ServeHTTP(w, r)
		return
	}
	start := rec.now()
	a.h.ServeHTTP(w, r)
	rec.add("api.handler", "loadgen.request", reqID(r), start)
}

// quiesce waits until no API call is in flight. The atomic load orders
// every handler's accesses to the testbed before the caller's.
func (a *tracedAPI) quiesce() {
	for a.inflight.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// platformRig is a testbed served over loopback HTTP with one writer and
// one reader connection.
type platformRig struct {
	tb             *hup.Testbed
	api            *tracedAPI
	srv            *http.Server
	serving        sync.WaitGroup
	url            string
	writer, reader *http.Client
	dials          atomic.Int64
	nextID         atomic.Uint64
	rng            *rand.Rand
	serve          []string // services that stay up for the serve phase
	churnNames     []string // names the churn cycles reuse in turn
	cycle          int

	mu       sync.Mutex
	admitted map[string]sim.Time
	primes   []float64         // virtual seconds from admission to active
	views    []api.ServiceView // returned by creates and resizes
}

// newPlatformRig builds the testbed, publishes the image through the
// API, creates the serve services and runs one warm-up churn cycle per
// churn name, so chunk stores, per-service instruments and connections
// are warm before anything is timed.
func newPlatformRig(seed uint64) (*platformRig, error) {
	hosts := make([]hostos.Spec, platformHosts)
	for i := range hosts {
		hosts[i] = hostos.Tacoma()
		hosts[i].Name = fmt.Sprintf("tacoma-%02d", i+1)
	}
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := tb.Agent.RegisterASP("asp", credential); err != nil {
		return nil, err
	}
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	if _, err := tb.EnableHA(soda.HAConfig{}); err != nil {
		return nil, err
	}
	tb.EnableAccounting(accounting.Options{})
	tb.EnableRequestTracing(reqtrace.Config{})
	rig := &platformRig{
		tb:       tb,
		api:      &tracedAPI{h: api.NewServer(tb).Handler()},
		rng:      rand.New(rand.NewPCG(seed, 2)),
		admitted: make(map[string]sim.Time),
	}
	tb.Master.Observe(func(e soda.Event) {
		rig.mu.Lock()
		defer rig.mu.Unlock()
		switch e.Kind {
		case soda.EventAdmitted:
			rig.admitted[e.Service] = e.At
		case soda.EventServiceActive:
			if t0, ok := rig.admitted[e.Service]; ok {
				rig.primes = append(rig.primes, e.At.Sub(t0).Seconds())
				delete(rig.admitted, e.Service)
			}
		}
	})
	rig.srv = &http.Server{Handler: rig.api}
	addr, err := serve(&rig.serving, rig.srv)
	if err != nil {
		return nil, err
	}
	rig.url = "http://" + addr.String()
	rig.writer, rig.reader = rig.client(), rig.client()

	if _, err := rig.call(rig.writer, 0, "POST", "/v1/images", api.PublishRequest{
		Credential: credential, Name: imageName, SizeMB: imageMB + rig.rng.IntN(9), DatasetMB: 8,
	}, nil); err != nil {
		rig.close()
		return nil, err
	}
	for i := 0; i < serveServices; i++ {
		name := rig.name("serve")
		if _, err := rig.call(rig.writer, 0, "POST", "/v1/services", api.CreateRequest{
			Credential: credential, Name: name, Image: imageName, N: serveN,
		}, nil); err != nil {
			rig.close()
			return nil, err
		}
		rig.serve = append(rig.serve, name)
	}
	// One warm-up cycle per churn name, so every per-service instrument
	// the churn will touch exists before anything is timed.
	for i := 0; i < churnNameCount; i++ {
		rig.churnNames = append(rig.churnNames, rig.name("churn"))
		for _, op := range churnCycle(rig.churnNames[i]) {
			if _, err := rig.do(rig.writer, op, 0); err != nil {
				rig.close()
				return nil, fmt.Errorf("warm-up %s: %w", opNames[op.kind], err)
			}
		}
	}
	if _, err := rig.do(rig.reader, rig.readOp(0), 0); err != nil {
		rig.close()
		return nil, err
	}
	rig.api.quiesce()
	rig.mu.Lock()
	rig.primes, rig.views = nil, nil
	rig.mu.Unlock()
	return rig, nil
}

func (rig *platformRig) client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         countingDial(&rig.dials),
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (rig *platformRig) close() {
	for _, c := range []*http.Client{rig.writer, rig.reader} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	rig.srv.Close()
	rig.serving.Wait()
}

// name draws a fresh service name from the seed.
func (rig *platformRig) name(prefix string) string {
	rig.cycle++
	return fmt.Sprintf("%s-%d-%04x", prefix, rig.cycle, rig.rng.Uint32()&0xffff)
}

// ctlOp is one control-plane call.
type ctlOp struct {
	kind int
	svc  string
}

// churnCycle is create(4) → resize(6) → resize(2) → delete of one service.
func churnCycle(svc string) []ctlOp {
	return []ctlOp{{opCreate, svc}, {opGrow, svc}, {opShrink, svc}, {opDelete, svc}}
}

// readOp is the i-th poll: service status, service list and /metrics in
// turn.
func (rig *platformRig) readOp(i int) ctlOp {
	return ctlOp{kind: opStatus + i%3, svc: rig.serve[i%len(rig.serve)]}
}

// request performs op as a fresh request ID, recording the client's span
// when rec is set, and returns the response body's length.
func (rig *platformRig) request(c *http.Client, op ctlOp, rec *recorder) (int, error) {
	id := rig.nextID.Add(1)
	var start time.Duration
	if rec != nil {
		start = rec.now()
	}
	n, err := rig.do(c, op, id)
	if rec != nil {
		rec.add("loadgen.request", "", id, start)
	}
	return n, err
}

// do performs one operation as request id and returns the response
// body's length.
func (rig *platformRig) do(c *http.Client, op ctlOp, id uint64) (int, error) {
	path := "/v1/services/" + op.svc
	switch op.kind {
	case opCreate:
		return rig.call(c, id, "POST", "/v1/services", api.CreateRequest{
			Credential: credential, Name: op.svc, Image: imageName, N: churnCreateN,
		}, func(v api.ServiceView) error { return wantNodes(v, op.svc, churnCreateN) })
	case opGrow, opShrink:
		n := churnGrowN
		if op.kind == opShrink {
			n = churnShrinkN
		}
		return rig.call(c, id, "POST", path+"/resize", api.ResizeRequest{Credential: credential, N: n},
			func(v api.ServiceView) error { return wantNodes(v, op.svc, n) })
	case opDelete:
		return rig.call(c, id, "DELETE", path+"?credential="+credential, nil, nil)
	case opStatus:
		return rig.call(c, id, "GET", path+"/status?credential="+credential, nil, nil)
	case opList:
		return rig.call(c, id, "GET", "/v1/services", nil, nil)
	default:
		return rig.call(c, id, "GET", "/metrics", nil, nil)
	}
}

// wantNodes checks a service view returned by create or resize.
func wantNodes(v api.ServiceView, name string, n int) error {
	if v.Name != name || v.State != "active" || v.Capacity != n {
		return fmt.Errorf("service %s is %s with capacity %d, want %s active with %d", v.Name, v.State, v.Capacity, name, n)
	}
	return nil
}

// call sends one API request and checks that it succeeded; check, when
// given, validates the decoded service view.
func (rig *platformRig) call(c *http.Client, id uint64, method, path string, body any, check func(api.ServiceView) error) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, rig.url+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if check != nil {
		var v api.ServiceView
		if err := json.Unmarshal(data, &v); err != nil {
			return len(data), fmt.Errorf("%s %s: %w", method, path, err)
		}
		if err := check(v); err != nil {
			return len(data), fmt.Errorf("%s %s: %w", method, path, err)
		}
		rig.mu.Lock()
		rig.views = append(rig.views, v)
		rig.mu.Unlock()
	}
	return len(data), nil
}

// ctlSample is one timed control-plane call.
type ctlSample struct {
	kind int
	lat  time.Duration
	err  error
}

// churnResult is what the churn phase measured.
type churnResult struct {
	ctl         []ctlSample
	reads       []sample
	readKinds   []int
	readBytes   []int
	wall        time.Duration
	proc        procDelta
	memPeak     float64
	heapMB      float64
	events      uint64
	journalRecs uint64
	journalB    float64
	originMB    float64
	peerFrac    float64
	primes      []float64
	downloads   []float64
	boots       []float64
}

// churn runs cycles create → resize → resize → delete on the writer
// connection while the reader polls at readRate, then checks that the
// journal replays to the live state and nothing was stranded.
func (rig *platformRig) churn(cycles int, rec *recorder, rep *report) churnResult {
	tb := rig.tb
	rig.api.rec.Store(rec)
	defer rig.api.rec.Store(nil)
	avail := tb.LeaderMaster().CollectAvailability()
	ev0, jr0, jb0 := tb.K.Dispatched(), tb.Cluster.Journal().Seq(), journalBytes(tb)
	// The reader polls until the writer is done; its arrivals cover far
	// more than the churn takes.
	var writerDone atomic.Bool
	reads := poissonArrivals(rig.rng, readRate, readRate*readHorizon, func(*rand.Rand) int { return 0 })
	var res churnResult
	res.readKinds = make([]int, len(reads))
	res.readBytes = make([]int, len(reads))
	mem := startMemSampler()
	p0 := readProc()
	clk := newWallClock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads = openLoop(clk, reads, 1, &writerDone, func(_, i int) error {
			op := rig.readOp(i)
			res.readKinds[i] = op.kind
			n, err := rig.request(rig.reader, op, rec)
			res.readBytes[i] = n
			return err
		})
	}()
	for c := 0; c < cycles; c++ {
		for _, op := range churnCycle(rig.churnNames[c%len(rig.churnNames)]) {
			t0 := clk.Now()
			_, err := rig.request(rig.writer, op, rec)
			res.ctl = append(res.ctl, ctlSample{kind: op.kind, lat: clk.Now() - t0, err: err})
		}
	}
	res.wall = clk.Now()
	writerDone.Store(true)
	wg.Wait()
	res.proc = p0.to(readProc())
	res.memPeak, res.heapMB = mem.Stop()
	rig.api.quiesce()

	res.readKinds, res.readBytes = res.readKinds[:len(res.reads)], res.readBytes[:len(res.reads)]

	fails := 0
	var firstErr error
	for _, s := range res.ctl {
		if s.err != nil {
			fails++
			firstErr = cmpErr(firstErr, s.err)
		}
	}
	for _, s := range res.reads {
		if s.err != nil {
			fails++
			firstErr = cmpErr(firstErr, s.err)
		}
	}
	rep.count(len(res.ctl)+len(res.reads), fails)
	if firstErr != nil {
		rep.check("control-plane calls", fmt.Errorf("%d failed, first: %w", fails, firstErr))
	}
	if d := rig.dials.Load(); d > 2 || d > int64(runtime.NumCPU()) {
		rep.check("load connections", fmt.Errorf("%d opened, want 2 and at most nproc %d", d, runtime.NumCPU()))
	}
	leader := tb.LeaderMaster()
	replayed, rr := soda.ReplayDigest(tb.Cluster.Journal().Bytes())
	rep.check("journal replay", checkReplay(replayed, leader.StateDigest(), rr.Truncated))
	rep.check("stranded resources", checkNoStranded(avail, leader.CollectAvailability()))

	res.events = tb.K.Dispatched() - ev0
	res.journalRecs = tb.Cluster.Journal().Seq() - jr0
	res.journalB = journalBytes(tb) - jb0
	// Image traffic is counted from the testbed's cold start: the churn
	// itself primes from warm chunk stores.
	res.originMB = float64(tb.Net.BytesFrom(hup.RepoIP)) / (1 << 20)
	if peer, origin := daemonBytes(tb); peer+origin > 0 {
		res.peerFrac = float64(peer) / float64(peer+origin)
	}
	rig.mu.Lock()
	res.primes = rig.primes
	for _, v := range rig.views {
		if len(v.Nodes) == churnCreateN {
			for _, n := range v.Nodes {
				res.downloads = append(res.downloads, n.DownloadSec)
				res.boots = append(res.boots, n.BootSec)
			}
		}
	}
	rig.primes, rig.views = nil, nil
	rig.mu.Unlock()
	return res
}

func cmpErr(first, err error) error {
	if first == nil {
		return err
	}
	return first
}

// journalBytes reads the journal's cumulative byte counter.
func journalBytes(tb *hup.Testbed) float64 {
	return float64(tb.Registry.Counter("soda_journal_bytes_total").Value())
}

// daemonBytes sums the image bytes the daemons fetched from peers and
// from the origin repository.
func daemonBytes(tb *hup.Testbed) (peer, origin int64) {
	for _, d := range tb.Daemons {
		peer += d.BytesFromPeers
		origin += d.BytesFromOrigin
	}
	return peer, origin
}

// serveResult is what the serve phase measured.
type serveResult struct {
	counts     vreqCounts
	retried    int
	retained   uint64
	vlat       []float64 // virtual latency, ms
	wall       time.Duration
	memPeak    float64
	events     uint64
	pendingMax int
	// rates are the virtual requests completed per wall second in each
	// of serveGroups consecutive groups of kernel steps.
	rates []float64
}

// serveGroups is how many groups of kernel steps the serve phase's rate
// is taken over; max_rps is their median.
const serveGroups = 20

// servePhase offers seeded open-loop virtual traffic to every serve
// service for a fixed virtual duration, advancing the kernel in steps,
// then drains and checks request conservation.
func (rig *platformRig) servePhase(seed uint64, virtual sim.Duration, rec *recorder, rep *report) serveResult {
	tb := rig.tb
	var res serveResult
	var gens []*workload.Generator
	var r0, d0, t0 int
	var ret0 uint64
	k := tb.K
	for i, name := range rig.serve {
		svc, ok := tb.Master.Service(name)
		if !ok || svc.Switch == nil {
			rep.check("serve services", fmt.Errorf("service %s has no switch", name))
			return res
		}
		r0 += svc.Switch.Routed()
		d0 += svc.Switch.Dropped()
		t0 += svc.Switch.Retried()
		ret0 += tb.ReqTraces.Collector(name).Retained()
		sw := hup.SwitchTarget{Switch: svc.Switch}
		// Time each virtual request on the kernel clock from the moment
		// the generator hands it to the switch.
		timed := workload.TargetFunc(func(ip simnet.IP, bytes int64, onDone func()) error {
			at := k.Now()
			return sw.Route(ip, bytes, func() {
				res.vlat = append(res.vlat, float64(k.Now().Sub(at))/float64(time.Millisecond))
				onDone()
			})
		})
		gen := workload.NewGenerator(k, timed, tb.AddClient(), sim.NewRNG(seed^uint64(0x5e7e+i)))
		gen.Timeout = vreqTimeout
		gens = append(gens, gen)
	}
	ev0 := tb.K.Dispatched()
	mem := startMemSampler()
	clk := newWallClock()
	for _, g := range gens {
		g.RunOpenLoop(vreqRate)
	}
	end := tb.K.Now().Add(virtual)
	perGroup := uint64(max(1, int(virtual/serveStep)/serveGroups))
	completed := func() (n int) {
		for _, g := range gens {
			n += g.Completed
		}
		return n
	}
	groupAt, groupDone := clk.Now(), 0
	for step := uint64(0); tb.K.Now().Before(end); step++ {
		if step > 0 && step%perGroup == 0 {
			now, done := clk.Now(), completed()
			res.rates = append(res.rates, float64(done-groupDone)/(now-groupAt).Seconds())
			groupAt, groupDone = now, done
		}
		var start time.Duration
		if rec != nil {
			start = rec.now()
		}
		tb.K.RunFor(serveStep)
		if rec != nil {
			rec.add("sim.run", "", 1<<62+step, start)
		}
		res.pendingMax = max(res.pendingMax, tb.K.Pending())
	}
	for _, g := range gens {
		g.Stop()
	}
	tb.K.RunFor(vreqTimeout + sim.Second)
	res.wall = clk.Now()
	res.memPeak, _ = mem.Stop()
	res.events = tb.K.Dispatched() - ev0

	var r1, d1, t1 int
	var ret1 uint64
	for _, name := range rig.serve {
		svc, _ := tb.Master.Service(name)
		r1 += svc.Switch.Routed()
		d1 += svc.Switch.Dropped()
		t1 += svc.Switch.Retried()
		ret1 += tb.ReqTraces.Collector(name).Retained()
	}
	c := vreqCounts{routed: r1 - r0, dropped: d1 - d0}
	for _, g := range gens {
		c.issued += g.Issued
		c.completed += g.Completed
		c.errors += g.Errors
		c.timeouts += g.Timeouts
	}
	res.counts, res.retried, res.retained = c, t1-t0, ret1-ret0
	rep.count(c.issued, c.errors+c.timeouts)
	rep.check("request conservation", checkConservation(c))
	if c.errors+c.timeouts+c.dropped > 0 {
		rep.check("virtual requests", fmt.Errorf("%d errors, %d timeouts, %d dropped of %d", c.errors, c.timeouts, c.dropped, c.issued))
	}
	return res
}

// platformPlan is the fixed amount of work a platform run does.
type platformPlan struct {
	cycles  int
	virtual sim.Duration
}

func planFor(cfg runConfig) platformPlan {
	return platformPlan{
		cycles:  max(1, int(cfg.seconds*churnShare*cyclesPerSec)),
		virtual: sim.Duration(cfg.seconds * serveShare * serveVSPerSec * float64(sim.Second)),
	}
}

// ctlLatencies returns the client latencies, in ms, of the calls of the
// given kinds (all kinds when none are given).
func ctlLatencies(ss []ctlSample, kinds ...int) []float64 {
	var out []float64
	for _, s := range ss {
		if len(kinds) == 0 || slices.Contains(kinds, s.kind) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// platformTimed is the timed run of the platform workload.
func platformTimed(cfg runConfig, rep *report) error {
	plan := planFor(cfg)
	rig, setup, err := setupRepeated(func() (*platformRig, error) { return newPlatformRig(cfg.seed) }, (*platformRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	// The churn is churnTrials back-to-back trials; p50_ms and
	// cpu_us_per_req are medians over them, p99_ms is over every call.
	var ctl, reads, p50s, cpus, primes []float64
	var memPeak float64
	var churnWall time.Duration
	polls := 0
	for i := 0; i < churnTrials; i++ {
		ch := rig.churn(plan.cycles/churnTrials, nil, rep)
		l := ctlLatencies(ch.ctl)
		ctl = append(ctl, l...)
		reads = append(reads, latenciesMs(ch.reads)...)
		p50s = append(p50s, median(l))
		cpus = append(cpus, us(ch.proc.cpu)/float64(len(ch.ctl)+len(ch.reads)))
		primes = append(primes, ch.primes...)
		memPeak = max(memPeak, ch.memPeak)
		churnWall += ch.wall
		polls += len(ch.reads)
	}
	sv := rig.servePhase(cfg.seed, plan.virtual, nil, rep)
	rate := median(sv.rates)
	rep.set("setup_s", setup, "s")
	rep.set("p50_ms", median(p50s), "ms")
	if tailLevel(len(ctl)) >= 0.99 {
		rep.set("p99_ms", quantile(ctl, 0.99), "ms")
	}
	rep.set("cpu_us_per_req", median(cpus), "us")
	rep.set("max_rps", rate, "1/s")
	rep.set("mem_peak_mb", max(memPeak, sv.memPeak), "MB")
	rep.printf("  p50_ms, p99_ms: control calls (create, resize, delete); p50_ms and cpu_us_per_req")
	rep.printf("  (per API call) are medians over %d churn trials; max_rps is the median over %d groups", churnTrials, len(sv.rates))
	rep.printf("  of kernel steps of virtual requests simulated per wall second")
	rep.printf("    p50 %s", fmtList(p50s))
	rep.printf("    cpu %s", fmtList(cpus))
	rep.printf("  %s", timing("ctl_ms", ctl, "ms"))
	rep.printf("  %s", timing("read_ms (from due)", reads, "ms"))
	rep.printf("  %d churn cycles in %.3gs wall, %d polls", plan.cycles, churnWall.Seconds(), polls)
	rep.printf("%-30s %.6g 1/s (%d requests in %.3gs)", "sim_kreq_per_s", rate/1000, sv.counts.completed, sv.wall.Seconds())
	rep.printf("%-30s %.6g vs (median of %d primes)", "prime_vs", median(primes), len(primes))
	rep.printf("  %s", timing("vreq_ms (virtual)", sv.vlat, "ms"))
	rep.printf("%-30s %.6g", "error_rate", float64(rep.failed)/float64(rep.attempted))
	return nil
}

// platformTraced is the traced run of the platform workload: an untraced
// and a traced run of half the budget each on fresh testbeds of the same
// seed, the second recording spans around every API call (client side
// and handler) and every kernel advance of the serve phase.
func platformTraced(cfg runConfig, rep *report) error {
	half := cfg
	half.seconds /= 2
	plan := planFor(half)
	var base churnResult
	{
		rig, err := newPlatformRig(cfg.seed)
		if err != nil {
			return err
		}
		base = rig.churn(plan.cycles, nil, rep)
		rig.close()
	}
	rig, err := newPlatformRig(cfg.seed)
	if err != nil {
		return err
	}
	defer rig.close()
	// Every call is a client and a handler span, plus one per kernel step.
	rec := newRecorder(8*plan.cycles + 2*readRate*readHorizon + int(plan.virtual/serveStep) + 64)
	ch := rig.churn(plan.cycles, rec, rep)
	sv := rig.servePhase(cfg.seed, plan.virtual, rec, rep)
	spans := rec.recorded()
	self := selfTimes(spans)
	if err := writeSpans(spanFile(cfg), spans, self); err != nil {
		return err
	}
	if n := rec.lost.Load(); n > 0 {
		rep.check("span buffer", fmt.Errorf("%d spans lost", n))
	}

	p50 := median(ctlLatencies(base.ctl))
	p50t := median(ctlLatencies(ch.ctl))
	calls := float64(len(base.ctl) + len(base.reads))
	ops := float64(len(ch.ctl))
	rep.set("loadgen.lag_p99_ms", quantile(lags(base.reads), 0.99), "ms")
	rep.set("loadgen.trace_overhead_pct", 100*(p50t-p50)/p50, "%")
	rep.set("proc.alloc_kb_per_req", base.proc.allocBytes/1024/calls, "KB")
	rep.set("proc.gc_cpu_frac", base.proc.gcFrac, "ratio")
	rep.set("proc.heap_peak_mb", base.heapMB, "MB")

	var readLat [opMetrics + 1][]float64
	var metricsBytes []float64
	for i, s := range ch.reads {
		k := ch.readKinds[i]
		readLat[k] = append(readLat[k], ms(s.end-s.start))
		if k == opMetrics {
			metricsBytes = append(metricsBytes, float64(ch.readBytes[i]))
		}
	}
	_, clientSelf := layerTimes(spans, self, "loadgen.request")
	handler, _ := layerTimes(spans, self, "api.handler")
	rep.set("api.create_p50_ms", median(ctlLatencies(ch.ctl, opCreate)), "ms")
	rep.set("api.resize_p50_ms", median(ctlLatencies(ch.ctl, opGrow, opShrink)), "ms")
	rep.set("api.delete_p50_ms", median(ctlLatencies(ch.ctl, opDelete)), "ms")
	rep.set("api.status_p50_ms", median(readLat[opStatus]), "ms")
	rep.set("api.metrics_p50_ms", median(readLat[opMetrics]), "ms")
	rep.set("api.metrics_bytes", median(metricsBytes), "B")
	rep.set("api.http_overhead_p50_us", median(clientSelf), "us")
	rep.set("soda.download_vs_p50", median(ch.downloads), "vs")
	rep.set("soda.boot_vs_p50", median(ch.boots), "vs")
	rep.set("soda.peer_byte_frac", ch.peerFrac, "ratio")
	rep.set("simnet.origin_mb", ch.originMB, "MB")
	rep.set("journal.bytes_per_op", ch.journalB/ops, "B")
	rep.set("journal.records_per_op", float64(ch.journalRecs)/ops, "count")
	rep.set("sim.events_per_ctl_op", float64(ch.events)/ops, "count")
	rep.set("sim.events_per_vreq", float64(sv.events)/float64(max(sv.counts.completed, 1)), "count")
	rep.set("sim.mevents_per_s", float64(sv.events)/sv.wall.Seconds()/1e6, "1/s")
	rep.set("sim.pending_max", float64(sv.pendingMax), "count")
	rep.set("svcswitch.routed", float64(sv.counts.routed), "count")
	rep.set("svcswitch.dropped", float64(sv.counts.dropped), "count")
	rep.set("svcswitch.retried", float64(sv.retried), "count")
	rep.set("reqtrace.retained", float64(sv.retained), "count")
	rep.printf("  %s", timing("api.handler", handler, "us"))
	rep.printf("  %s", timing("client outside handler", clientSelf, "us"))
	rep.printf("  %s", timing("prime (virtual s)", ch.primes, "vs"))
	rep.printf("  %d spans written to %s", len(spans), spanFile(cfg))
	return nil
}
