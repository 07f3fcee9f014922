// Package realswitch is the live-network twin of internal/svcswitch: a
// real HTTP reverse proxy that routes requests to backend servers over
// TCP using the same service-configuration-file format (Table 3) and the
// same replaceable Policy interface. It demonstrates that SODA's request
// switching logic is not an artefact of the simulator — the same policy
// drives genuine connections — and it backs cmd/sodactl and the
// realproxy example.
//
// The data plane is lock-free on the request path: all routing state
// (backend entries, prebuilt reverse proxies, per-backend stat cells,
// latency histograms, and the weighted-round-robin schedule) lives in an
// immutable route table swapped through an atomic pointer, RCU-style.
// Requests load the table, pick a backend with a single atomic counter
// increment, and bump per-backend atomic stat cells; the proxy's mutex is
// taken only to rebuild the table after a config resize, SetPolicy, or
// Instrument — and, for custom policies outside the built-in fast path,
// around the policy's Pick call.
package realswitch

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/reqtrace"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// TransportConfig tunes the shared http.Transport all backend proxies
// use. The zero value is usable but keeps net/http defaults (notably two
// idle connections per host, which forces a TCP redial on almost every
// concurrent request); DefaultTransportConfig is the tuned starting
// point.
type TransportConfig struct {
	// MaxIdleConnsPerHost bounds the kept-alive connection pool per
	// backend. This is the dominant throughput knob under concurrency.
	MaxIdleConnsPerHost int
	// MaxIdleConns bounds the pool across all backends.
	MaxIdleConns int
	// DialTimeout bounds TCP connection establishment.
	DialTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait for a backend's response
	// headers; 0 means no limit.
	ResponseHeaderTimeout time.Duration
	// IdleConnTimeout closes kept-alive connections idle this long.
	IdleConnTimeout time.Duration
}

// DefaultTransportConfig returns the tuned transport settings the proxy
// uses unless told otherwise.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{
		MaxIdleConnsPerHost:   64,
		MaxIdleConns:          512,
		DialTimeout:           5 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		IdleConnTimeout:       90 * time.Second,
	}
}

// transport materialises the config into a shared http.Transport. It
// forwards as a switch should: backends are dialled directly, never
// through an HTTP_PROXY from the environment, and compression is left
// to the client and backend — the transport neither adds
// Accept-Encoding nor inflates a gzip reply, so encodings and
// Content-Length pass through unchanged.
func (c TransportConfig) transport() *http.Transport {
	d := &net.Dialer{Timeout: c.DialTimeout, KeepAlive: 30 * time.Second}
	return &http.Transport{
		DisableCompression:    true,
		DialContext:           d.DialContext,
		MaxIdleConns:          c.MaxIdleConns,
		MaxIdleConnsPerHost:   c.MaxIdleConnsPerHost,
		IdleConnTimeout:       c.IdleConnTimeout,
		ResponseHeaderTimeout: c.ResponseHeaderTimeout,
	}
}

// copyBufSize is the body copy buffer of every backend proxy: the size
// httputil.ReverseProxy allocates per request when it has no pool.
const copyBufSize = 32 << 10

// bodyBufPool is the httputil.BufferPool shared by every ReverseProxy
// the switch builds, so forwarding a request reuses a copy buffer
// instead of allocating one. It pools array pointers: Get hands out a
// slice of the array and Put converts the slice back, so a warm
// Get+Put allocates nothing (pooling &slice would allocate per Put).
type bodyBufPool struct{ p sync.Pool }

var bodyBufs = &bodyBufPool{p: sync.Pool{New: func() any { return new([copyBufSize]byte) }}}

func (b *bodyBufPool) Get() []byte { return b.p.Get().(*[copyBufSize]byte)[:] }

// Put returns a buffer from Get to the pool; a slice of any other
// length is dropped.
func (b *bodyBufPool) Put(buf []byte) {
	if len(buf) != copyBufSize {
		return
	}
	b.p.Put((*[copyBufSize]byte)(buf))
}

// statCell is one backend's forwarding statistics as atomics, so the
// request path updates them without a lock and without contending with
// other backends' cells. The passive-health fields ride in the same
// cell: they persist across route-table rebuilds for free.
type statCell struct {
	active    atomic.Int64
	forwarded atomic.Int64

	fails        atomic.Int32 // consecutive failures while in rotation
	ejectedUntil atomic.Int64 // UnixNano the next probe is due; 0 = in rotation
	probing      atomic.Bool  // a half-open probe is in flight
}

func (c *statCell) snapshot() svcswitch.Stats {
	return svcswitch.Stats{
		Forwarded: int(c.forwarded.Load()),
		Active:    int(c.active.Load()),
	}
}

// admit reports whether the backend may receive a request at now. An
// ejected backend admits exactly one half-open probe once its sit-out
// elapses; the CAS makes concurrent requests race for the probe slot.
func (c *statCell) admit(now int64) bool {
	until := c.ejectedUntil.Load()
	if until == 0 {
		return true
	}
	if now < until {
		return false
	}
	return c.probing.CompareAndSwap(false, true)
}

// RetryPolicy bounds the proxy's retry-on-dead-backend behaviour.
type RetryPolicy struct {
	// MaxRetries caps additional backend attempts after the first; 0
	// disables retries entirely.
	MaxRetries int
	// RetryNonIdempotent permits retrying methods like POST. Off by
	// default: a connection reset does not prove the backend never
	// processed the request.
	RetryNonIdempotent bool
}

// DefaultRetryPolicy returns the proxy's retry defaults.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxRetries: 3} }

// HealthConfig tunes passive backend health tracking (consecutive-error
// ejection with half-open re-admission). The zero value disables it.
type HealthConfig struct {
	// EjectAfter is the consecutive-failure count that ejects a backend;
	// 0 disables health tracking.
	EjectAfter int
	// ProbeAfter is how long an ejected backend sits out before one
	// half-open probe is admitted.
	ProbeAfter time.Duration
}

// idempotent reports whether the method is safe to replay per RFC 9110.
func idempotent(method string) bool {
	switch method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return false
}

// routeTable is an immutable snapshot of everything the request path
// needs, swapped atomically on config/policy/instrument changes. Only
// cursor (and the stat cells / histograms it points at) mutate after
// publication.
type routeTable struct {
	version int
	entries []svcswitch.BackendEntry
	addrs   []string
	proxies []*httputil.ReverseProxy
	cells   []*statCell
	hists   []*telemetry.Histogram
	latency *telemetry.Histogram

	// fast marks the lock-free pick path: schedule is a precomputed
	// weighted-round-robin cycle, indexed by the atomic cursor. When a
	// custom policy is installed (or the schedule would be impractically
	// long), fast is false and picks go through the mutex-guarded policy.
	fast     bool
	schedule []int32
	cursor   atomic.Uint64

	// Policy knobs snapshotted at rebuild, so the request path reads
	// them without touching the mutex.
	retry      RetryPolicy
	ejectAfter int
	probeNs    int64
}

// maxScheduleSlots caps the precomputed WRR cycle length; configurations
// whose reduced capacities sum past this fall back to the slow path.
const maxScheduleSlots = 4096

// maxMaskedBackends is the retry bitmask width: beyond 64 backends the
// proxy still routes, but gives up after the first failed attempt.
const maxMaskedBackends = 64

// Proxy is a live HTTP service switch. It implements http.Handler; serve
// it with net/http on the address clients should use.
type Proxy struct {
	config *svcswitch.ConfigFile
	table  atomic.Pointer[routeTable]

	// mu guards rebuilds and the control-plane state below; the request
	// path takes it only for custom-policy picks.
	mu        sync.Mutex
	policy    svcswitch.Policy
	cfgSeen   int
	cells     map[string]*statCell // persistent across rebuilds
	proxies   map[string]*httputil.ReverseProxy
	transport *http.Transport
	tcfg      TransportConfig
	pickStats []svcswitch.Stats // slow-path scratch, guarded by mu
	retryPol  RetryPolicy
	healthCfg HealthConfig

	// Wall-clock twins of the simulated switch's instruments. The
	// counters always work (they back Routed/Dropped/Retried); latency
	// histograms collect only once Instrument connects a registry.
	reg            *telemetry.Registry
	routed         *telemetry.Counter
	dropped        *telemetry.Counter
	retried        *telemetry.Counter
	ejectedC       *telemetry.Counter
	readmitted     *telemetry.Counter
	retryExhausted *telemetry.Counter
	latency        *telemetry.Histogram
	backendLat     map[string]*telemetry.Histogram

	// reqSeq numbers requests (atomically — ServeHTTP is concurrent);
	// histogram exemplars carry it as the trace ID.
	reqSeq atomic.Uint64

	// flog logs backend-health transitions and drops — never successful
	// per-request traffic. Stored atomically so SetLogger is safe while
	// requests are in flight. Nil (no-op) until SetLogger.
	flog atomic.Pointer[flight.Logger]

	// rtc is the tail-sampling request collector, stored atomically so
	// SetRequestTracer is safe while requests are in flight. Nil
	// (untraced) until SetRequestTracer; when nil, ServeHTTP takes no
	// extra clock readings at all.
	rtc atomic.Pointer[reqtrace.Collector]
}

// New creates a proxy for the given service configuration with the
// default weighted-round-robin policy and tuned transport settings.
func New(config *svcswitch.ConfigFile) *Proxy {
	return NewWithTransport(config, DefaultTransportConfig())
}

// NewWithTransport is New with explicit transport settings.
func NewWithTransport(config *svcswitch.ConfigFile, tc TransportConfig) *Proxy {
	p := &Proxy{
		config:    config,
		policy:    svcswitch.NewWeightedRoundRobin(),
		cfgSeen:   -1,
		cells:     make(map[string]*statCell),
		proxies:   make(map[string]*httputil.ReverseProxy),
		tcfg:      tc,
		transport: tc.transport(),
		retryPol:  DefaultRetryPolicy(),
	}
	p.Instrument(nil)
	return p
}

// Instrument connects the proxy's counters and wall-clock latency
// histograms to a registry — the same instrument names as the simulated
// switch, labeled by service, so dashboards read identically over
// simulated and live traffic.
func (p *Proxy) Instrument(reg *telemetry.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	svc := telemetry.L("service", p.config.ServiceName)
	routed := reg.Counter("soda_switch_routed_total", svc)
	dropped := reg.Counter("soda_switch_dropped_total", svc)
	retried := reg.Counter("soda_switch_retries_total", svc)
	ejected := reg.Counter("soda_switch_ejected_total", svc)
	readmitted := reg.Counter("soda_switch_readmitted_total", svc)
	exhausted := reg.Counter("soda_switch_retry_exhausted_total", svc)
	routed.Add(p.routed.Value())
	dropped.Add(p.dropped.Value())
	retried.Add(p.retried.Value())
	ejected.Add(p.ejectedC.Value())
	readmitted.Add(p.readmitted.Value())
	exhausted.Add(p.retryExhausted.Value())
	p.reg = reg
	p.routed, p.dropped, p.retried = routed, dropped, retried
	p.ejectedC, p.readmitted, p.retryExhausted = ejected, readmitted, exhausted
	p.latency = reg.Histogram("soda_switch_latency_seconds", nil, svc)
	p.backendLat = make(map[string]*telemetry.Histogram)
	p.rebuildLocked()
}

// SetLogger routes the proxy's backend-health transitions and drops into
// the flight recorder. Safe to call while requests are in flight. A nil
// logger restores the no-op default.
func (p *Proxy) SetLogger(l *flight.Logger) { p.flog.Store(l) }

// logger returns the current flight logger (nil for no-op).
func (p *Proxy) logger() *flight.Logger { return p.flog.Load() }

// SetRequestTracer attaches a tail-sampling request collector. While
// attached, request IDs come from the collector's store-wide sequence,
// ServeHTTP attributes wall-clock time to route-pick and upstream
// stages, and latency exemplars are stamped only for retained requests
// so every exposed exemplar resolves via /traces/{id}. Safe to call
// while requests are in flight; nil detaches.
func (p *Proxy) SetRequestTracer(c *reqtrace.Collector) { p.rtc.Store(c) }

// RequestTracer returns the attached collector, nil when untraced.
func (p *Proxy) RequestTracer() *reqtrace.Collector { return p.rtc.Load() }

// Routed returns how many requests were forwarded to a backend. It is
// lock-free: the counter is atomic.
func (p *Proxy) Routed() int { return int(p.routed.Value()) }

// Dropped returns how many requests could not be served.
func (p *Proxy) Dropped() int { return int(p.dropped.Value()) }

// Retried returns how many backend attempts were abandoned for another
// backend (connection refused or reset before any response bytes).
func (p *Proxy) Retried() int { return int(p.retried.Value()) }

// RetryExhausted returns how many requests were dropped while untried
// backends remained — the retry cap or the idempotency gate stopped the
// proxy from trying them.
func (p *Proxy) RetryExhausted() int { return int(p.retryExhausted.Value()) }

// EjectedTotal returns how many times a backend was ejected.
func (p *Proxy) EjectedTotal() int { return int(p.ejectedC.Value()) }

// ReadmittedTotal returns how many times an ejected backend was
// re-admitted after a successful half-open probe.
func (p *Proxy) ReadmittedTotal() int { return int(p.readmitted.Value()) }

// SetRetryPolicy replaces the retry bounds and republishes the route
// table so in-flight pickers see the change on their next request.
func (p *Proxy) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxRetries < 0 {
		panic("realswitch: negative retry cap")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retryPol = rp
	p.rebuildLocked()
}

// RetryPolicy returns the active retry bounds.
func (p *Proxy) RetryPolicy() RetryPolicy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retryPol
}

// SetHealth configures passive backend health tracking; a zero
// EjectAfter disables it and returns every backend to the rotation.
func (p *Proxy) SetHealth(hc HealthConfig) {
	if hc.EjectAfter < 0 || hc.ProbeAfter < 0 {
		panic("realswitch: negative health threshold")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.healthCfg = hc
	if hc.EjectAfter == 0 {
		for _, c := range p.cells {
			c.fails.Store(0)
			c.ejectedUntil.Store(0)
			c.probing.Store(false)
		}
	}
	p.rebuildLocked()
}

// BackendEjected reports whether passive health currently holds the
// backend out of the rotation.
func (p *Proxy) BackendEjected(e svcswitch.BackendEntry) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.cells[e.Addr()]
	return c != nil && c.ejectedUntil.Load() != 0
}

// LatencyHistogram returns the proxy's wall-clock latency histogram,
// nil when uninstrumented — parity with svcswitch.Switch for the SLO
// evaluator.
func (p *Proxy) LatencyHistogram() *telemetry.Histogram { return p.latency }

// Transport returns the shared transport backing every backend proxy,
// for connection-pool introspection in tests and benchmarks.
func (p *Proxy) Transport() *http.Transport { return p.transport }

// backendHist returns the per-backend latency histogram under p.mu, or
// nil when uninstrumented.
func (p *Proxy) backendHist(addr string) *telemetry.Histogram {
	if p.reg == nil {
		return nil
	}
	h, ok := p.backendLat[addr]
	if !ok {
		h = p.reg.Histogram("soda_switch_backend_latency_seconds",
			nil, telemetry.L("service", p.config.ServiceName), telemetry.L("backend", addr))
		p.backendLat[addr] = h
	}
	return h
}

// SetPolicy installs a service-specific policy (the ASP hook of §3.4).
func (p *Proxy) SetPolicy(pol svcswitch.Policy) {
	if pol == nil {
		panic("realswitch: nil policy")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.policy = pol
	pol.Reset()
	p.rebuildLocked()
}

// Config returns the proxy's service configuration file.
func (p *Proxy) Config() *svcswitch.ConfigFile { return p.config }

// StatsFor returns forwarding statistics for a backend.
func (p *Proxy) StatsFor(e svcswitch.BackendEntry) svcswitch.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.cells[e.Addr()]; c != nil {
		return c.snapshot()
	}
	return svcswitch.Stats{}
}

// table returns the current route table, rebuilding it first if the
// configuration version moved. The common case is two atomic loads.
func (p *Proxy) loadTable() *routeTable {
	t := p.table.Load()
	if t == nil || t.version != p.config.Version() {
		return p.rebuild()
	}
	return t
}

// rebuild rebuilds the route table under the mutex, double-checking the
// version so concurrent noticers rebuild once.
func (p *Proxy) rebuild() *routeTable {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.table.Load(); t != nil && t.version == p.config.Version() {
		return t
	}
	return p.rebuildLocked()
}

// rebuildLocked constructs and publishes a fresh route table from the
// current config snapshot. Caller holds p.mu.
func (p *Proxy) rebuildLocked() *routeTable {
	version, entries := p.config.Snapshot()
	if version != p.cfgSeen {
		p.policy.Reset()
		p.cfgSeen = version
	}
	t := &routeTable{
		version:    version,
		entries:    entries,
		addrs:      make([]string, len(entries)),
		proxies:    make([]*httputil.ReverseProxy, len(entries)),
		cells:      make([]*statCell, len(entries)),
		hists:      make([]*telemetry.Histogram, len(entries)),
		latency:    p.latency,
		retry:      p.retryPol,
		ejectAfter: p.healthCfg.EjectAfter,
		probeNs:    int64(p.healthCfg.ProbeAfter),
	}
	for i, e := range entries {
		addr := e.Addr()
		t.addrs[i] = addr
		rp := p.proxies[addr]
		if rp == nil {
			rp = httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: addr})
			rp.Transport = p.transport
			rp.BufferPool = bodyBufs
			rp.ErrorHandler = captureError
			p.proxies[addr] = rp
		}
		t.proxies[i] = rp
		cell := p.cells[addr]
		if cell == nil {
			cell = &statCell{}
			p.cells[addr] = cell
		}
		t.cells[i] = cell
		t.hists[i] = p.backendHist(addr)
	}
	switch p.policy.(type) {
	case *svcswitch.WeightedRoundRobin:
		t.schedule = wrrSchedule(entries)
	case *svcswitch.RoundRobin:
		if n := len(entries); n > 0 && n <= maxMaskedBackends {
			t.schedule = make([]int32, n)
			for i := range t.schedule {
				t.schedule[i] = int32(i)
			}
		}
	}
	t.fast = len(t.schedule) > 0
	p.table.Store(t)
	return t
}

// wrrSchedule precomputes one smooth-weighted-round-robin cycle over the
// entries' capacities (GCD-reduced), or nil when the configuration does
// not admit a bounded schedule.
func wrrSchedule(entries []svcswitch.BackendEntry) []int32 {
	n := len(entries)
	if n == 0 || n > maxMaskedBackends {
		return nil
	}
	g := 0
	for _, e := range entries {
		if e.Capacity <= 0 {
			return nil
		}
		g = gcd(g, e.Capacity)
	}
	total := 0
	for _, e := range entries {
		total += e.Capacity / g
	}
	if total > maxScheduleSlots {
		return nil
	}
	current := make([]int, n)
	sched := make([]int32, 0, total)
	for s := 0; s < total; s++ {
		best := -1
		for i, e := range entries {
			current[i] += e.Capacity / g
			if best < 0 || current[i] > current[best] {
				best = i
			}
		}
		current[best] -= total
		sched = append(sched, int32(best))
	}
	return sched
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pick chooses a backend index from the table, skipping already-tried
// backends and (when health tracking is on) ejected ones. Fast path: one
// atomic increment into the precomputed schedule. Slow path (custom
// policy): mutex-guarded Pick with stats snapshotted from the atomic
// cells. If health would exclude every untried backend, the pick fails
// open and considers them anyway. Returns -1 when no pick is possible.
func (p *Proxy) pick(t *routeTable, tried uint64, now int64) int {
	if t.fast {
		n := uint64(len(t.schedule))
		for i := uint64(0); i < n; i++ {
			idx := int(t.schedule[(t.cursor.Add(1)-1)%n])
			if tried&(1<<uint(idx)) != 0 {
				continue
			}
			if t.ejectAfter > 0 && !t.cells[idx].admit(now) {
				continue
			}
			return idx
		}
		if t.ejectAfter > 0 {
			// Fail open: every untried backend is ejected.
			for i := uint64(0); i < n; i++ {
				idx := int(t.schedule[(t.cursor.Add(1)-1)%n])
				if tried&(1<<uint(idx)) == 0 {
					return idx
				}
			}
		}
		return -1
	}
	return p.slowPick(t, tried, now)
}

func (p *Proxy) slowPick(t *routeTable, tried uint64, now int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(t.entries)
	if tried == 0 && t.ejectAfter == 0 {
		if cap(p.pickStats) < n {
			p.pickStats = make([]svcswitch.Stats, n)
		}
		stats := p.pickStats[:n]
		for i, c := range t.cells {
			stats[i] = c.snapshot()
		}
		idx, err := p.policy.Pick(t.entries, stats)
		if err != nil || idx < 0 || idx >= n {
			return -1
		}
		return idx
	}
	// Retry or health-filtered pick: re-consult the policy against the
	// eligible subset (cold path; allocation is fine here).
	pickSub := func(useHealth bool) int {
		sub := make([]svcswitch.BackendEntry, 0, n)
		stats := make([]svcswitch.Stats, 0, n)
		back := make([]int, 0, n)
		for i := range t.entries {
			if tried&(1<<uint(i)) != 0 {
				continue
			}
			if useHealth && !t.cells[i].admit(now) {
				continue
			}
			sub = append(sub, t.entries[i])
			stats = append(stats, t.cells[i].snapshot())
			back = append(back, i)
		}
		if len(sub) == 0 {
			return -1
		}
		idx, err := p.policy.Pick(sub, stats)
		if err != nil || idx < 0 || idx >= len(sub) {
			return -1
		}
		return back[idx]
	}
	if t.ejectAfter > 0 {
		if idx := pickSub(true); idx >= 0 {
			return idx
		}
	}
	return pickSub(false)
}

// noteSuccess clears a backend's failure streak; a successful half-open
// probe re-admits it.
func (p *Proxy) noteSuccess(t *routeTable, cell *statCell) {
	if t.ejectAfter == 0 {
		return
	}
	cell.fails.Store(0)
	cell.probing.Store(false)
	if cell.ejectedUntil.Swap(0) != 0 {
		p.readmitted.Inc()
		p.logger().Info("backend readmitted", telemetry.L("backend", cellAddr(t, cell)))
	}
}

// noteFailure records a failed backend attempt: a failed probe re-arms
// the sit-out window; enough consecutive failures eject the backend.
func (p *Proxy) noteFailure(t *routeTable, cell *statCell, now int64) {
	if t.ejectAfter == 0 {
		return
	}
	wasProbe := cell.probing.Swap(false)
	if cell.ejectedUntil.Load() != 0 {
		if wasProbe {
			cell.ejectedUntil.Store(now + t.probeNs)
		}
		return
	}
	if int(cell.fails.Add(1)) >= t.ejectAfter {
		cell.fails.Store(0)
		if cell.ejectedUntil.Swap(now+t.probeNs) == 0 {
			p.ejectedC.Inc()
			p.logger().Warn("backend ejected", telemetry.L("backend", cellAddr(t, cell)))
		}
	}
}

// cellAddr resolves a stat cell back to its backend address for
// diagnostics (health transitions only, never the per-request path).
func cellAddr(t *routeTable, cell *statCell) string {
	for i, c := range t.cells {
		if c == cell {
			return t.addrs[i]
		}
	}
	return "?"
}

// captureWriter wraps the client's ResponseWriter so the proxy can tell
// whether a backend attempt failed before any response bytes were
// committed — the condition for safely retrying another backend.
type captureWriter struct {
	http.ResponseWriter
	wroteHeader bool
	failed      bool
	err         error
}

func (c *captureWriter) WriteHeader(code int) {
	c.wroteHeader = true
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.wroteHeader = true
	return c.ResponseWriter.Write(b)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// captureError is the shared ReverseProxy ErrorHandler: it records the
// failure on the captureWriter without writing a response, leaving the
// retry decision to ServeHTTP. httputil only invokes it for errors that
// occur before the response header is forwarded, so a failed-and-clean
// writer is always safe to retry.
func captureError(w http.ResponseWriter, r *http.Request, err error) {
	if cw, ok := w.(*captureWriter); ok {
		cw.failed = true
		cw.err = err
		return
	}
	http.Error(w, "realswitch: backend error: "+err.Error(), http.StatusBadGateway)
}

// replayable reports whether the request body can be re-sent to another
// backend.
func replayable(r *http.Request) bool {
	return r.Body == nil || r.Body == http.NoBody || r.GetBody != nil
}

// ServeHTTP implements http.Handler: load the route table, pick a
// backend lock-free, and reverse-proxy the request over the shared
// transport, timed on the wall clock. Backends that fail before any
// response bytes are committed are retried through the remaining
// backends (counted in soda_switch_retries_total) up to the retry
// policy's cap — non-idempotent methods are not retried unless the
// policy opts in; when attempts run out, the request is dropped with
// 502 (soda_switch_retry_exhausted_total if backends remained untried).
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	now := start.UnixNano()
	rtc := p.rtc.Load()
	reqID := p.reqSeq.Add(1)
	if rtc != nil {
		reqID = rtc.NextID()
	}
	t := p.loadTable()
	n := len(t.entries)
	if n == 0 {
		p.dropped.Inc()
		if rtc != nil {
			rec := reqtrace.Record{ID: reqID, StartNs: now, Dropped: true,
				TotalNs: time.Since(start).Nanoseconds()}
			rtc.Offer(&rec)
		}
		p.logger().WithTrace(reqID).Error("request dropped: no backends configured")
		http.Error(w, "realswitch: no backends configured", http.StatusBadGateway)
		return
	}
	canRetry := n <= maxMaskedBackends && replayable(r) &&
		(t.retry.RetryNonIdempotent || idempotent(r.Method))
	maxAttempts := n
	if maxAttempts > t.retry.MaxRetries+1 {
		maxAttempts = t.retry.MaxRetries + 1
	}
	var tried uint64
	var lastErr error
	// Per-stage wall-clock attribution, measured only when a collector
	// is attached — the untraced path reads the clock exactly as before.
	var routeNs, upstreamNs int64
	lastBackend := ""
	attempts := 0
	for ; attempts < maxAttempts; attempts++ {
		var tPick time.Time
		if rtc != nil {
			tPick = time.Now()
		}
		idx := p.pick(t, tried, now)
		if rtc != nil {
			routeNs += time.Since(tPick).Nanoseconds()
		}
		if idx < 0 {
			break
		}
		tried |= 1 << uint(idx)
		if attempts > 0 {
			p.retried.Inc()
			if r.GetBody != nil {
				body, err := r.GetBody()
				if err != nil {
					break
				}
				r.Body = body
			}
		}
		cell := t.cells[idx]
		cell.active.Add(1)
		cw := captureWriter{ResponseWriter: w}
		var tUp time.Time
		if rtc != nil {
			lastBackend = t.addrs[idx]
			tUp = time.Now()
		}
		t.proxies[idx].ServeHTTP(&cw, r)
		if rtc != nil {
			upstreamNs += time.Since(tUp).Nanoseconds()
		}
		cell.active.Add(-1)
		if !cw.failed {
			cell.forwarded.Add(1)
			p.noteSuccess(t, cell)
			p.routed.Inc()
			elapsed := time.Since(start)
			exID := reqID
			if rtc != nil {
				rec := reqtrace.Record{
					ID: reqID, StartNs: now, Backend: t.addrs[idx],
					Retries: attempts, RouteNs: routeNs,
					UpstreamNs: upstreamNs, TotalNs: elapsed.Nanoseconds(),
				}
				if !rtc.Offer(&rec) {
					exID = 0 // unretained: leave no dangling exemplar
				}
			}
			sec := elapsed.Seconds()
			t.latency.ObserveTraced(sec, exID)
			t.hists[idx].ObserveTraced(sec, exID)
			return
		}
		lastErr = cw.err
		p.noteFailure(t, cell, now)
		if cw.wroteHeader {
			// Bytes already reached the client; nothing to retry.
			p.dropped.Inc()
			if rtc != nil {
				rec := reqtrace.Record{
					ID: reqID, StartNs: now, Backend: t.addrs[idx],
					Retries: attempts, Dropped: true, RouteNs: routeNs,
					UpstreamNs: upstreamNs, TotalNs: time.Since(start).Nanoseconds(),
				}
				rtc.Offer(&rec)
			}
			return
		}
		if !canRetry {
			attempts++
			break
		}
	}
	p.dropped.Inc()
	if rtc != nil {
		rec := reqtrace.Record{
			ID: reqID, StartNs: now, Backend: lastBackend,
			Retries: attempts, Dropped: true, RouteNs: routeNs,
			UpstreamNs: upstreamNs, TotalNs: time.Since(start).Nanoseconds(),
		}
		rtc.Offer(&rec)
	}
	if lastErr != nil && untriedRemain(tried, n) {
		p.retryExhausted.Inc()
	}
	msg := "realswitch: no live backend"
	if lastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, lastErr)
	}
	p.logger().WithTrace(reqID).Error("request dropped",
		telemetry.L("attempts", fmt.Sprint(attempts)),
		telemetry.L("error", msg))
	http.Error(w, msg, http.StatusBadGateway)
}

// untriedRemain reports whether any of the n backends was never
// attempted.
func untriedRemain(tried uint64, n int) bool {
	if n > maxMaskedBackends {
		return true // can't tell; beyond the mask the proxy gives up early
	}
	for i := 0; i < n; i++ {
		if tried&(1<<uint(i)) == 0 {
			return true
		}
	}
	return false
}

// Backend is a minimal live application service for demonstrations: it
// serves a fixed payload and identifies itself, so tests can verify the
// 2:1 weighted split over real TCP.
type Backend struct {
	// Name identifies the backend in the X-Soda-Node response header.
	Name string
	// Payload is the response body.
	Payload []byte

	mu     sync.Mutex
	served int
}

// Served returns how many requests this backend handled.
func (b *Backend) Served() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.served
}

// ServeHTTP implements http.Handler.
func (b *Backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	b.served++
	b.mu.Unlock()
	w.Header().Set("X-Soda-Node", b.Name)
	w.WriteHeader(http.StatusOK)
	if len(b.Payload) > 0 {
		w.Write(b.Payload)
	} else {
		io.WriteString(w, "ok from "+b.Name)
	}
}
