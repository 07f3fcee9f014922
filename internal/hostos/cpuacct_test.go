package hostos

import (
	"math"
	"testing"

	"repro/internal/cycles"
	"repro/internal/sim"
)

// retireUIDs runs one short burst under each of n fresh userids starting
// at base and kills its process, leaving n drained accounts behind — the
// footprint of n torn-down virtual service nodes.
func retireUIDs(k *sim.Kernel, h *Host, base, n int) {
	for uid := base; uid < base+n; uid++ {
		p := h.Spawn("retired", uid)
		p.Exec(10_000, nil)
		k.Run()
		h.Kill(p)
	}
}

func relClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
}

// TestCPUAccountingMatchesPerFlowSums drives finished, live, killed and
// spinning CPU flows across several userids and checks, at several
// instants, that each uid's account and the host total equal the sum of
// Served over the flows that uid issued.
func TestCPUAccountingMatchesPerFlowSums(t *testing.T) {
	k, h := newSeattle(t, nil)
	flows := map[int][]*sim.Flow{}
	exec := func(p *Process, c cycles.Cycles, onDone func()) {
		if f := p.Exec(c, onDone); f != nil {
			flows[p.UID] = append(flows[p.UID], f)
		}
	}
	clock := cycles.Cycles(h.Spec.Clock)

	// uid 1: a chain of short bursts, all finished by the first check.
	short := h.Spawn("short", 1)
	left := 20
	var again func()
	again = func() {
		if left--; left > 0 {
			exec(short, clock/100, again)
		}
	}
	exec(short, clock/100, again)
	// uid 2: a spinner that is never stopped.
	spin := h.Spawn("spin", 2)
	flows[2] = append(flows[2], spin.Spin())
	// uid 3: one finished burst, then a long one killed part-way.
	victim := h.Spawn("victim", 3)
	exec(victim, clock/10, func() { exec(victim, 10*clock, nil) })
	k.After(2*sim.Second, func() { h.Kill(victim) })
	// uid 4: two processes with long bursts still running at the end.
	exec(h.Spawn("long-a", 4), 100*clock, nil)
	exec(h.Spawn("long-b", 4), 50*clock, nil)
	// uid 5: spinners torn down together by KillUID.
	for i := 0; i < 3; i++ {
		flows[5] = append(flows[5], h.Spawn("guest", 5).Spin())
	}
	k.After(3*sim.Second, func() { h.KillUID(5) })

	uids := []int{1, 2, 3, 4, 5}
	for _, at := range []sim.Duration{500 * sim.Millisecond, 2500 * sim.Millisecond, 6 * sim.Second} {
		k.RunUntil(sim.Time(at))
		var sumFor, sumFlows float64
		for _, uid := range uids {
			var want float64
			for _, f := range flows[uid] {
				want += f.Served()
			}
			got := h.CPUCyclesFor(uid)
			if !relClose(got, want) {
				t.Errorf("t=%v uid %d: CPUCyclesFor = %v, per-flow sum %v", at, uid, got, want)
			}
			sumFor += got
			sumFlows += want
		}
		total := h.TotalCPUCycles()
		if !relClose(total, sumFor) {
			t.Errorf("t=%v: TotalCPUCycles = %v, sum of CPUCyclesFor %v", at, total, sumFor)
		}
		if !relClose(total, sumFlows) {
			t.Errorf("t=%v: TotalCPUCycles = %v, per-flow sum %v", at, total, sumFlows)
		}
		if total == 0 || total > float64(h.Spec.Clock)*at.Seconds()*(1+1e-9) {
			t.Errorf("t=%v: total %v outside (0, capacity]", at, total)
		}
	}
	if len(flows[1]) != 20 {
		t.Fatalf("uid 1 issued %d bursts, want 20", len(flows[1]))
	}
	if victim.Alive() || len(flows[3]) != 2 {
		t.Fatalf("fixture broken: victim alive=%v with %d flows", victim.Alive(), len(flows[3]))
	}
}

// TestCPUAccountingZeroAllocAfterChurn gates both queries at exactly zero
// allocations on a host that has retired 5,000 userids.
func TestCPUAccountingZeroAllocAfterChurn(t *testing.T) {
	k, h := newSeattle(t, nil)
	retireUIDs(k, h, 1000, 5000)
	for uid := 1; uid <= 3; uid++ {
		h.Spawn("live", uid).Spin()
	}
	k.RunUntil(k.Now().Add(sim.Second))
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += h.CPUCyclesFor(2) }); a != 0 {
		t.Errorf("CPUCyclesFor: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink += h.TotalCPUCycles() }); a != 0 {
		t.Errorf("TotalCPUCycles: %v allocs/op, want 0", a)
	}
	if sink == 0 {
		t.Fatal("no cycles accounted")
	}
}
