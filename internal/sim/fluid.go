package sim

import "fmt"

// Flow is a unit of work draining through a FluidServer: a CPU burst
// (work = cycles), a network transfer (work = bytes), or a disk write
// (work = bytes). The server's rate policy divides capacity among active
// flows; the flow completes when its remaining work reaches zero.
type Flow struct {
	// Label identifies the flow in traces and debugging output.
	Label string
	// Weight is consumed by weight-aware rate policies; 1 by default.
	Weight float64
	// Meta lets resource models attach their own bookkeeping (e.g. the
	// owning process) without the fluid engine knowing about it.
	Meta any

	remaining float64
	rate      float64
	served    float64
	onDone    func()
	server    *FluidServer
	index     int  // position in server.flows, -1 when inactive
	pooled    bool // recycled into the server's free list on completion
}

// Remaining returns the work left in the flow, after accounting for any
// service accrued up to the server's current virtual time.
func (f *Flow) Remaining() float64 {
	if f.server != nil {
		f.server.settle()
	}
	return f.remaining
}

// Served returns the total work completed by the flow so far.
func (f *Flow) Served() float64 {
	if f.server != nil {
		f.server.settle()
	}
	return f.served
}

// Rate returns the service rate (work units per second) most recently
// assigned by the rate policy, zero if the flow is inactive.
func (f *Flow) Rate() float64 { return f.rate }

// SetRate assigns the flow's service rate. It exists for RatePolicy
// implementations living outside this package; calling it from anywhere
// else has no lasting effect, since the next reschedule overwrites it.
func (f *Flow) SetRate(r float64) { f.rate = r }

// Active reports whether the flow is currently attached to a server.
func (f *Flow) Active() bool { return f.server != nil }

// AddWork increases the flow's remaining work while it is in service.
// Used by long-lived flows (e.g. a spinning process) that never drain.
func (f *Flow) AddWork(units float64) {
	if f.server == nil {
		f.remaining += units
		return
	}
	s := f.server
	s.settle()
	f.remaining += units
	s.reschedule()
}

// RatePolicy assigns a service rate to every active flow. Implementations
// must set f.rate (units/second) on each flow; the sum may not exceed the
// server's capacity, but the engine does not verify this — policies are
// trusted, and deliberately-wrong policies are used in ablation tests.
type RatePolicy func(capacity float64, flows []*Flow)

// EqualShare divides capacity equally among active flows — the policy of a
// fair queueing link or an unmodified per-process fair CPU scheduler.
func EqualShare(capacity float64, flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	share := capacity / float64(len(flows))
	for _, f := range flows {
		f.rate = share
	}
}

// WeightedShare divides capacity in proportion to flow weights
// (generalised processor sharing).
func WeightedShare(capacity float64, flows []*Flow) {
	var total float64
	for _, f := range flows {
		w := f.Weight
		if w <= 0 {
			w = 1
		}
		total += w
	}
	if total == 0 {
		return
	}
	for _, f := range flows {
		w := f.Weight
		if w <= 0 {
			w = 1
		}
		f.rate = capacity * w / total
	}
}

// FluidServer is a capacity-C resource shared by a dynamic set of flows
// under a pluggable rate policy, simulated exactly in the fluid limit:
// rates are piecewise constant between flow arrivals/departures, and the
// next departure is scheduled in O(n).
type FluidServer struct {
	// Name identifies the resource in panics and traces.
	Name string

	k        *Kernel
	capacity float64
	policy   RatePolicy
	flows    []*Flow
	settled  Time
	next     Timer
	onNext   func()  // pre-bound next-completion callback (no per-reschedule alloc)
	free     []*Flow // recycled pooled flows

	// TotalServed accumulates all work ever completed, for utilisation
	// accounting.
	TotalServed float64
}

// NewFluidServer returns a server with the given capacity (work units per
// second of virtual time) and rate policy.
func NewFluidServer(k *Kernel, name string, capacity float64, policy RatePolicy) *FluidServer {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: fluid server %q with non-positive capacity", name))
	}
	if policy == nil {
		policy = EqualShare
	}
	s := &FluidServer{Name: name, k: k, capacity: capacity, policy: policy, settled: k.Now()}
	s.onNext = func() {
		s.next = Timer{}
		s.settle()
		s.reschedule()
	}
	return s
}

// Capacity returns the server's total service rate.
func (s *FluidServer) Capacity() float64 { return s.capacity }

// SetCapacity changes the server's service rate, re-dividing it among
// active flows immediately (used for resizing experiments).
func (s *FluidServer) SetCapacity(c float64) {
	if c <= 0 {
		panic(fmt.Sprintf("sim: fluid server %q resized to non-positive capacity", s.Name))
	}
	s.settle()
	s.capacity = c
	s.reschedule()
}

// SetPolicy swaps the rate policy at the current instant — the mechanism
// behind the Figure 5 scheduler comparison.
func (s *FluidServer) SetPolicy(p RatePolicy) {
	if p == nil {
		panic("sim: nil rate policy")
	}
	s.settle()
	s.policy = p
	s.reschedule()
}

// ActiveFlows returns the number of flows currently in service.
func (s *FluidServer) ActiveFlows() int { return len(s.flows) }

// Flows returns a snapshot of the active flow set.
func (s *FluidServer) Flows() []*Flow {
	out := make([]*Flow, len(s.flows))
	copy(out, s.flows)
	return out
}

// Submit starts a new flow with the given amount of work. onDone fires (in
// a fresh kernel event) when the work drains. Submit with non-positive work
// completes immediately.
func (s *FluidServer) Submit(label string, weight, work float64, meta any, onDone func()) *Flow {
	f := &Flow{Label: label, Weight: weight, Meta: meta, remaining: work, onDone: onDone, index: -1}
	s.start(f, work, onDone)
	return f
}

// SubmitPooled is Submit for callers that discard the returned handle: the
// flow struct is drawn from (and, on completion or cancellation, returned
// to) the server's free list, so steady-state traffic does not allocate.
// The caller must not retain the flow past its completion callback.
func (s *FluidServer) SubmitPooled(label string, weight, work float64, meta any, onDone func()) *Flow {
	var f *Flow
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		f = &Flow{}
	}
	*f = Flow{Label: label, Weight: weight, Meta: meta, remaining: work, onDone: onDone, index: -1, pooled: true}
	s.start(f, work, onDone)
	return f
}

// start attaches a prepared flow, or completes it immediately when it
// carries no work.
func (s *FluidServer) start(f *Flow, work float64, onDone func()) {
	if work <= 0 {
		if onDone != nil {
			s.k.Immediately(onDone)
		}
		if f.pooled {
			s.recycleFlow(f)
		}
		return
	}
	s.settle()
	f.server = s
	f.index = len(s.flows)
	s.flows = append(s.flows, f)
	s.reschedule()
}

// recycleFlow returns a detached pooled flow to the free list.
func (s *FluidServer) recycleFlow(f *Flow) {
	*f = Flow{index: -1}
	s.free = append(s.free, f)
}

// Cancel removes a flow without completing it. It reports whether the flow
// was active. The flow's onDone callback does not fire.
func (s *FluidServer) Cancel(f *Flow) bool {
	if f.server != s {
		return false
	}
	s.settle()
	s.detach(f)
	if f.pooled {
		s.recycleFlow(f)
	}
	s.reschedule()
	return true
}

func (s *FluidServer) detach(f *Flow) {
	i := f.index
	last := len(s.flows) - 1
	s.flows[i] = s.flows[last]
	s.flows[i].index = i
	s.flows[last] = nil
	s.flows = s.flows[:last]
	f.server = nil
	f.index = -1
	f.rate = 0
}

// settle advances every active flow's accounting to the current virtual
// time at the rates assigned at the last reschedule.
func (s *FluidServer) settle() {
	now := s.k.Now()
	dt := now.Sub(s.settled).Seconds()
	if dt > 0 {
		for _, f := range s.flows {
			served := f.rate * dt
			if served > f.remaining {
				served = f.remaining
			}
			f.remaining -= served
			f.served += served
			s.TotalServed += served
		}
	}
	s.settled = now
}

// reschedule recomputes rates and (re)arms the next-completion event.
// Callers must settle() first.
func (s *FluidServer) reschedule() {
	s.next.Cancel()
	s.next = Timer{}
	// Complete any flows that drained (to within fluid-model tolerance)
	// at this instant. The tolerance is relative to the flow's total work
	// so byte-sized and gigacycle-sized flows both terminate cleanly.
	for i := 0; i < len(s.flows); {
		f := s.flows[i]
		if f.remaining <= 1e-9*(1+f.served) {
			s.completeNow(f)
			continue
		}
		i++
	}
	if len(s.flows) == 0 {
		return
	}
	s.policy(s.capacity, s.flows)
	earliest := MaxTime
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		secs := f.remaining / f.rate
		// Flows that would take centuries of virtual time (Spin loops,
		// effectively-infinite work) get no completion event: converting
		// their ETA to Duration would overflow int64, and any flow-set
		// change reschedules everything anyway.
		if secs > 1e9 {
			continue
		}
		// Clamp to ≥1 ns so float rounding can never schedule a
		// zero-delay completion loop at one timestamp.
		delta := Duration(secs * float64(Second))
		if delta < Nanosecond {
			delta = Nanosecond
		}
		eta := s.k.Now().Add(delta)
		if eta < earliest {
			earliest = eta
		}
	}
	if earliest == MaxTime {
		return // all flows starved; a future set change will reschedule
	}
	s.next = s.k.At(earliest, s.onNext)
}

func (s *FluidServer) completeNow(f *Flow) {
	f.served += f.remaining
	s.TotalServed += f.remaining
	f.remaining = 0
	done := f.onDone
	s.detach(f)
	if f.pooled {
		s.recycleFlow(f)
	}
	if done != nil {
		s.k.Immediately(done)
	}
}

// Utilisation returns the fraction of capacity used since the epoch,
// given the current virtual time.
func (s *FluidServer) Utilisation() float64 {
	s.settle()
	elapsed := s.k.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return s.TotalServed / (s.capacity * elapsed)
}
