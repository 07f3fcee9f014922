package accounting_test

import (
	"strconv"
	"testing"

	"repro/internal/accounting"
	"repro/internal/cycles"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

type benchNode struct {
	ip simnet.IP
	k  *sim.Kernel
}

func (n *benchNode) IP() simnet.IP { return n.ip }
func (n *benchNode) ExecCPU(c cycles.Cycles, onDone func()) bool {
	n.k.Immediately(onDone)
	return true
}
func (n *benchNode) SyscallCost(s cycles.Syscall) cycles.Cycles { return cycles.HostCost(s) }
func (n *benchNode) Alive() bool                                { return true }

// benchSwitch mirrors svcswitch's own benchmark fixture: a 3-backend
// instrumented switch on a fast simulated LAN.
func benchSwitch(b *testing.B) (*sim.Kernel, *simnet.Network, *svcswitch.Switch) {
	b.Helper()
	k := sim.NewKernel()
	net := simnet.New(k, 10*sim.Microsecond)
	host := net.MustAttach("host", 1000)
	client := net.MustAttach("client", 1000)
	if err := client.AddIP("10.0.1.1"); err != nil {
		b.Fatal(err)
	}
	if err := host.AddIP("10.0.0.0"); err != nil {
		b.Fatal(err)
	}
	ents := []svcswitch.BackendEntry{
		{IP: "10.0.0.1", Port: 8080, Capacity: 2},
		{IP: "10.0.0.2", Port: 8080, Capacity: 1},
		{IP: "10.0.0.3", Port: 8080, Capacity: 1},
	}
	for _, e := range ents {
		if err := host.AddIP(e.IP); err != nil {
			b.Fatal(err)
		}
	}
	cfg := svcswitch.NewConfigFile("svc")
	if err := cfg.SetEntries(ents); err != nil {
		b.Fatal(err)
	}
	sw := svcswitch.New(net, &benchNode{ip: "10.0.0.0", k: k}, cfg)
	sw.Instrument(telemetry.NewRegistry())
	for _, e := range ents {
		sw.Bind(e, func(client simnet.IP, onDone func()) bool {
			k.Immediately(onDone)
			return true
		})
	}
	return k, net, sw
}

func runRouting(b *testing.B, k *sim.Kernel, sw *svcswitch.Switch, n int) {
	b.Helper()
	completed := 0
	var issue func()
	issue = func() {
		completed++
		if completed >= n {
			// The metering tickers re-arm forever; stop the kernel
			// explicitly once the request quota completes.
			k.Stop()
			return
		}
		if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: issue}); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: issue}); err != nil {
		b.Fatal(err)
	}
	k.Run()
	if completed != n {
		b.Fatalf("completed %d/%d", completed, n)
	}
}

// BenchmarkRoutingMetered measures what the accounting pipeline costs
// the switch's routing hot path. The meter is deliberately off-path —
// it samples odometers on a periodic tick instead of intercepting
// requests — so the metered variant must stay within the same 5%
// acceptance bar as the telemetry layer, and the per-request path must
// stay allocation-free.
func BenchmarkRoutingMetered(b *testing.B) {
	for _, metered := range []bool{false, true} {
		name := "unmetered"
		if metered {
			name = "metered"
		}
		b.Run(name, func(b *testing.B) {
			k, net, sw := benchSwitch(b)
			if metered {
				acct := accounting.New(accounting.Options{
					Clock:    k.Now,
					Registry: telemetry.NewRegistry(),
				})
				acct.Watch(accounting.WatchConfig{
					Service: "svc",
					SLO:     svcswitch.SLO{Availability: 0.99},
					Nodes: []accounting.NodeRef{
						{Name: "svc-0", UID: 1, IP: "10.0.0.1"},
						{Name: "svc-1", UID: 2, IP: "10.0.0.2"},
						{Name: "svc-2", UID: 3, IP: "10.0.0.3"},
					},
					Net: net,
					Reserved: func() accounting.ReservedResources {
						return accounting.ReservedResources{CPUMHz: 600, MemoryMB: 128, DiskMB: 512}
					},
					Latency: sw.LatencyHistogram(),
					Routed:  func() int64 { return int64(sw.Routed()) },
					Dropped: func() int64 { return int64(sw.Dropped()) },
				})
				// Same combined tick the hup testbed schedules.
				evalEvery := int(acct.EvalPeriod() / acct.SamplePeriod())
				ticks := 0
				k.Every(acct.SamplePeriod(), func() {
					acct.Sample()
					if ticks++; ticks%evalEvery == 0 {
						acct.Evaluate()
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			runRouting(b, k, sw, b.N)
			b.StopTimer()
			if sw.Routed() < b.N {
				b.Fatalf("routed %d < N %d", sw.Routed(), b.N)
			}
		})
	}
}

// churnedMeter builds a meter over three spinning nodes on a host that
// has already retired the given number of userids, each after one short
// burst — the state a host reaches after that many torn-down nodes.
func churnedMeter(tb testing.TB, retired int) (*accounting.Meter, sim.Time) {
	tb.Helper()
	k := sim.NewKernel()
	h := hostos.MustNew(k, hostos.Seattle(), nil)
	for uid := 1000; uid < 1000+retired; uid++ {
		p := h.Spawn("retired", uid)
		p.Exec(10_000, nil)
		k.Run()
		h.Kill(p)
	}
	var refs []accounting.NodeRef
	for uid := 1; uid <= 3; uid++ {
		h.Spawn("live", uid).Spin()
		refs = append(refs, accounting.NodeRef{Name: "svc-" + strconv.Itoa(uid), UID: uid, Host: h})
	}
	m := accounting.NewMeter("svc", nil, func() accounting.ReservedResources {
		return accounting.ReservedResources{CPUMHz: 600, MemoryMB: 128, DiskMB: 512}
	}, refs, telemetry.NewRegistry(), k.Now())
	k.RunUntil(k.Now().Add(sim.Second))
	return m, k.Now()
}

// TestMeterSampleZeroAllocAfterChurn gates a meter sample at exactly zero
// allocations on a host that has retired 5,000 userids: metering cost
// must not depend on how many nodes the host has ever run.
func TestMeterSampleZeroAllocAfterChurn(t *testing.T) {
	m, now := churnedMeter(t, 5000)
	if a := testing.AllocsPerRun(100, func() {
		now = now.Add(sim.Second)
		m.Sample(now)
	}); a != 0 {
		t.Fatalf("Meter.Sample: %v allocs/op, want 0", a)
	}
	if m.Totals().CPUMHzSeconds == 0 {
		t.Fatal("meter charged no CPU")
	}
}

// BenchmarkMeterSampleAfterChurn measures one meter sample on hosts that
// have retired 10 and 5,000 userids; the two ns/op figures should match.
func BenchmarkMeterSampleAfterChurn(b *testing.B) {
	for _, retired := range []int{10, 5000} {
		b.Run("retired="+strconv.Itoa(retired), func(b *testing.B) {
			m, now := churnedMeter(b, retired)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(sim.Second)
				m.Sample(now)
			}
		})
	}
}
