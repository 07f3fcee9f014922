package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; tests substitute a fake one to
// check the lag accounting.
type clock interface {
	Now() time.Duration // offset from the clock's epoch
	SleepUntil(t time.Duration)
}

// wallClock is the real clock.
type wallClock struct{ epoch time.Time }

func newWallClock() wallClock { return wallClock{epoch: time.Now()} }

func (c wallClock) Now() time.Duration { return time.Since(c.epoch) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	due  time.Duration // offset from the start of the phase
	kind int           // workload-defined request kind
}

// poissonArrivals draws n arrivals at rate per second, with exponential
// gaps; kind picks each request's kind. The same rng state gives the
// same schedule.
func poissonArrivals(rng *rand.Rand, rate float64, n int, kind func(*rand.Rand) int) []arrival {
	out := make([]arrival, n)
	var t time.Duration
	for i := range out {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		out[i] = arrival{due: t, kind: kind(rng)}
	}
	return out
}

// sample is one completed request of an open loop, timed against the
// phase start.
type sample struct {
	due, start, end time.Duration
	// slept is true when the connection was idle before the request was
	// due and waited for it; only then is start−due the generator's own
	// lateness. Otherwise the request queued behind busy connections,
	// which is the program's doing and belongs in its latency.
	slept bool
	err   error
}

// latency is the request's time from when it was due, so a stall is
// charged to every request it delays.
func (s sample) latency() time.Duration { return s.end - s.due }

// openLoop sends every arrival at its due time over conns connections,
// each a goroutine that takes the next unsent arrival when it is free,
// and returns the samples in arrival order. send(conn, i) performs
// arrival i on connection conn. Once stop (when not nil) is set, no
// further arrival is sent and only the sent ones are returned.
func openLoop(clk clock, arr []arrival, conns int, stop *atomic.Bool, send func(conn, i int) error) []sample {
	base := clk.Now()
	out := make([]sample, len(arr))
	sent := make([]bool, len(arr))
	stopped := func() bool { return stop != nil && stop.Load() }
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) || stopped() {
					return
				}
				due := base + arr[i].due
				slept := clk.Now() < due
				if slept {
					clk.SleepUntil(due)
					if stopped() {
						return
					}
				}
				start := clk.Now()
				err := send(c, i)
				end := clk.Now()
				out[i] = sample{due: arr[i].due, start: start - base, end: end - base, slept: slept, err: err}
				sent[i] = true
			}
		}(c)
	}
	wg.Wait()
	kept := out[:0]
	for i, s := range out {
		if sent[i] {
			kept = append(kept, s)
		}
	}
	return kept
}

// lags returns, in milliseconds, how late the generator sent each
// request it had waited for.
func lags(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.slept {
			out = append(out, ms(s.start-s.due))
		}
	}
	return out
}

// latenciesMs returns every sample's latency from due, in milliseconds.
func latenciesMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency())
	}
	return out
}

// backlogGrew reports whether requests at the end of a phase waited
// longer for a free connection than those at its start, by more than
// slack: the offered rate outran the program.
func backlogGrew(ss []sample, slack time.Duration) bool {
	n := len(ss) / 5
	if n == 0 {
		return false
	}
	wait := func(part []sample) float64 {
		w := make([]float64, len(part))
		for i, s := range part {
			w[i] = ms(s.start - s.due)
		}
		return median(w)
	}
	return wait(ss[len(ss)-n:]) > wait(ss[:n])+ms(slack)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
