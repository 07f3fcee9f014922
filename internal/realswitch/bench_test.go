package realswitch

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/simnet"
	"repro/internal/svcswitch"
)

// benchFixture starts nBackends live Backends (capacities alternating
// 1 and 2, so the WRR schedule is mixed) behind the proxy.
func benchFixture(tb testing.TB, nBackends int) (*Proxy, *httptest.Server) {
	tb.Helper()
	handlers := make([]http.Handler, nBackends)
	for i := range handlers {
		handlers[i] = &Backend{Name: "node-" + strconv.Itoa(i)}
	}
	return proxyFront(tb, handlers...)
}

// proxyFront starts one live HTTP server per handler — backend i with
// capacity 1 + i%2 — plus the proxy in front of them, all on loopback
// TCP, torn down with the test.
func proxyFront(tb testing.TB, handlers ...http.Handler) (*Proxy, *httptest.Server) {
	tb.Helper()
	var entries []svcswitch.BackendEntry
	for i, h := range handlers {
		srv := httptest.NewServer(h)
		tb.Cleanup(srv.Close)
		host := strings.TrimPrefix(srv.URL, "http://")
		ipPort := strings.Split(host, ":")
		port, err := strconv.Atoi(ipPort[1])
		if err != nil {
			tb.Fatal(err)
		}
		entries = append(entries, svcswitch.BackendEntry{
			IP:       simnet.IP(ipPort[0]),
			Port:     port,
			Capacity: 1 + i%2,
		})
	}
	cfg := svcswitch.NewConfigFile("bench")
	if err := cfg.SetEntries(entries); err != nil {
		tb.Fatal(err)
	}
	p := New(cfg)
	front := httptest.NewServer(p)
	tb.Cleanup(front.Close)
	return p, front
}

// BenchmarkProxyParallel measures contended proxy throughput: 16
// goroutines issue keep-alive requests through the switch to 4 local
// backends. This is the acceptance benchmark for the lock-free data
// plane (the PR 2 tentpole): the pre-PR mutex plane serialized every
// pick/stat/histogram update behind one sync.Mutex and rode
// http.DefaultTransport's 2 idle conns per host.
func BenchmarkProxyParallel(b *testing.B) {
	p, front := benchFixture(b, 4)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		for pb.Next() {
			resp, err := client.Get(front.URL)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.StopTimer()
	if p.Routed() < b.N {
		b.Fatalf("routed %d < N %d", p.Routed(), b.N)
	}
}

// BenchmarkPickParallel isolates the routing data plane — route-table
// load, policy pick, and stat updates, no network — under 16 goroutines.
// This is where the RCU/atomic rewrite shows directly, independent of
// the HTTP round-trip cost that dominates the end-to-end benchmarks.
func BenchmarkPickParallel(b *testing.B) {
	cfg := svcswitch.NewConfigFile("bench")
	var entries []svcswitch.BackendEntry
	for i := 0; i < 4; i++ {
		entries = append(entries, svcswitch.BackendEntry{
			IP: simnet.IP("10.0.0." + strconv.Itoa(i)), Port: 8080, Capacity: 1 + i%2,
		})
	}
	if err := cfg.SetEntries(entries); err != nil {
		b.Fatal(err)
	}
	p := New(cfg)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t := p.loadTable()
			idx := p.pick(t, 0, 0)
			if idx < 0 {
				b.Error("no pick")
				return
			}
			cell := t.cells[idx]
			cell.active.Add(1)
			cell.forwarded.Add(1)
			p.routed.Inc()
			cell.active.Add(-1)
		}
	})
}

// BenchmarkPickParallelMutex is the pre-PR reference plane: the same
// pick under one sync.Mutex with per-request entry copies, stats slices,
// and map lookups — what the proxy did before the route-table rewrite.
// The ratio to BenchmarkPickParallel is the data-plane speedup.
func BenchmarkPickParallelMutex(b *testing.B) {
	cfg := svcswitch.NewConfigFile("bench")
	var entries []svcswitch.BackendEntry
	for i := 0; i < 4; i++ {
		entries = append(entries, svcswitch.BackendEntry{
			IP: simnet.IP("10.0.0." + strconv.Itoa(i)), Port: 8080, Capacity: 1 + i%2,
		})
	}
	if err := cfg.SetEntries(entries); err != nil {
		b.Fatal(err)
	}
	var (
		mu     sync.Mutex
		policy = svcswitch.NewWeightedRoundRobin()
		stats  = make(map[string]*svcswitch.Stats)
		routed int64
	)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			es := cfg.Entries()
			sl := make([]svcswitch.Stats, len(es))
			for i, e := range es {
				if st := stats[e.Addr()]; st != nil {
					sl[i] = *st
				}
			}
			idx, err := policy.Pick(es, sl)
			if err != nil || idx < 0 {
				mu.Unlock()
				b.Error("no pick")
				return
			}
			st := stats[es[idx].Addr()]
			if st == nil {
				st = &svcswitch.Stats{}
				stats[es[idx].Addr()] = st
			}
			st.Active++
			st.Forwarded++
			routed++
			st.Active--
			mu.Unlock()
		}
	})
	_ = routed
}

// BenchmarkProxySerial is the uncontended single-client floor, for
// comparison with the parallel number.
func BenchmarkProxySerial(b *testing.B) {
	p, front := benchFixture(b, 4)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(front.URL)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.StopTimer()
	if p.Routed() < b.N {
		b.Fatalf("routed %d < N %d", p.Routed(), b.N)
	}
}
