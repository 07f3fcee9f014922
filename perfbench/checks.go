package main

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
)

// expect describes a correct proxied response.
type expect struct {
	bodyLen int64
	nodes   map[string]int // X-Soda-Node value → backend index
}

// checkResponse validates one response from the switch and returns the
// index of the backend that served it.
func (e expect) checkResponse(status int, node string, bodyLen int64) (int, error) {
	if status != http.StatusOK {
		return -1, fmt.Errorf("status %d, want 200", status)
	}
	if bodyLen != e.bodyLen {
		return -1, fmt.Errorf("body of %d bytes, want %d", bodyLen, e.bodyLen)
	}
	idx, ok := e.nodes[node]
	if !ok {
		return -1, fmt.Errorf("X-Soda-Node %q names no configured backend", node)
	}
	return idx, nil
}

// wrrSkew returns the largest relative gap between a backend's share of
// the served requests and its share of the configured capacity.
func wrrSkew(served []int64, caps []int) float64 {
	var total int64
	capTotal := 0
	for i := range caps {
		total += served[i]
		capTotal += caps[i]
	}
	if total == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for i, c := range caps {
		want := float64(c) / float64(capTotal)
		got := float64(served[i]) / float64(total)
		worst = max(worst, math.Abs(got-want)/want)
	}
	return worst
}

// maxWRRSkew is the largest relative share error the weighted
// round-robin split may show over many requests; over few, a backend may
// also be off by two schedule cycles' worth (the phase can start and end
// anywhere in the cycle, and concurrent picks interleave).
const maxWRRSkew = 0.02

func checkWRR(served []int64, caps []int) error {
	var total int64
	cycle := 0
	for i := range caps {
		total += served[i]
		cycle += caps[i]
	}
	if total == 0 {
		return fmt.Errorf("no request was served")
	}
	for i, c := range caps {
		want := float64(total) * float64(c) / float64(cycle)
		if math.Abs(float64(served[i])-want) > max(maxWRRSkew*want, float64(2*cycle)) {
			return fmt.Errorf("per-backend split %v is off the %v capacities by %.1f%%", served, caps, 100*wrrSkew(served, caps))
		}
	}
	return nil
}

// checkPostsOnce verifies that the backends received each POST the
// clients sent exactly once: a POST is never retried.
func checkPostsOnce(sent int64, received int64, badUploads int64) error {
	if received != sent {
		return fmt.Errorf("backends received %d POSTs for %d sent", received, sent)
	}
	if badUploads != 0 {
		return fmt.Errorf("%d POST upload(s) arrived with the wrong length", badUploads)
	}
	return nil
}

// vreqCounts is the request accounting of the simulated serve phase.
type vreqCounts struct {
	issued, completed, errors, timeouts int // client side
	routed, dropped                     int // svcswitch side
}

// checkConservation verifies that every virtual request the clients
// issued was settled exactly once, and that the switches account for
// each: routed to a node or dropped.
func checkConservation(c vreqCounts) error {
	if c.issued != c.completed+c.errors+c.timeouts {
		return fmt.Errorf("issued %d ≠ completed %d + errors %d + timeouts %d",
			c.issued, c.completed, c.errors, c.timeouts)
	}
	if c.routed+c.dropped != c.issued {
		return fmt.Errorf("switches routed %d + dropped %d ≠ issued %d", c.routed, c.dropped, c.issued)
	}
	if c.completed > c.routed {
		return fmt.Errorf("completed %d exceeds routed %d", c.completed, c.routed)
	}
	return nil
}

// checkReplay verifies that replaying the journal reconstructs the live
// leader's state.
func checkReplay(replayed, live string, truncated bool) error {
	if truncated {
		return fmt.Errorf("journal replay reported a truncated tail")
	}
	if replayed != live {
		return fmt.Errorf("journal replay digest %.12s differs from leader state %.12s", replayed, live)
	}
	return nil
}

// checkNoStranded verifies that the platform's free resources after the
// churn equal those before it: no reservation or address is stranded.
func checkNoStranded(before, after any) error {
	if !reflect.DeepEqual(before, after) {
		return fmt.Errorf("availability after churn %v differs from before %v", after, before)
	}
	return nil
}
