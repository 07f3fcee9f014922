package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		got := tailLevel(tc.n)
		if got != tc.want {
			t.Errorf("tailLevel(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if got > 0 && beyond(tc.n, got) < minBeyond {
			t.Errorf("tailLevel(%d) = %v leaves %d samples beyond", tc.n, got, beyond(tc.n, got))
		}
	}
	// Every n: the chosen level keeps ≥10 beyond and the next higher
	// level would not.
	for n := 1; n < 30000; n += 7 {
		q := tailLevel(n)
		if q == 0 {
			continue
		}
		if beyond(n, q) < minBeyond {
			t.Fatalf("n=%d: level %v has %d beyond", n, q, beyond(n, q))
		}
		for _, higher := range tailLevels {
			if higher > q && beyond(n, higher) >= minBeyond {
				t.Fatalf("n=%d: level %v chosen but %v also keeps %d beyond", n, q, higher, beyond(n, higher))
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := quantile(xs, 0.99); got != 990 || xs[0] != 1000 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
	if !strings.Contains(timing("x", xs, "ms"), "p99 990 ms (n=1000)") {
		t.Fatalf("timing line %q lacks the supported tail", timing("x", xs, "ms"))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "realswitch.serve", parent: "loadgen.request", start: 0, end: 100 * ms, req: 1},
		// Two attempts that overlap each other, and one that overruns
		// the parent: together they cover [10,60) and [80,100).
		{name: "backend.serve", parent: "realswitch.serve", start: 10 * ms, end: 40 * ms, req: 1},
		{name: "backend.serve", parent: "realswitch.serve", start: 30 * ms, end: 60 * ms, req: 1},
		{name: "backend.serve", parent: "realswitch.serve", start: 80 * ms, end: 130 * ms, req: 1},
		// Same name in another request is not a child.
		{name: "backend.serve", parent: "realswitch.serve", start: 0, end: 100 * ms, req: 2},
		{name: "loadgen.request", start: -10 * ms, end: 110 * ms, req: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{30 * ms, 30 * ms, 30 * ms, 50 * ms, 100 * ms, 20 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s) self = %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
}

func TestRecorderDropsPastCapacity(t *testing.T) {
	r := newRecorder(2)
	for i := 0; i < 5; i++ {
		r.add("x", "", uint64(i), 0)
	}
	if len(r.recorded()) != 2 || r.lost.Load() != 3 {
		t.Fatalf("recorded %d lost %d, want 2 and 3", len(r.recorded()), r.lost.Load())
	}
	var nilRec *recorder
	nilRec.add("x", "", 1, 0) // untraced runs pass nil
}

// fakeClock advances only when told: sleeping overshoots the target by
// oversleep, and each send takes service.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Duration
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t + c.oversleep
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func TestOpenLoopLagAgainstFakeClock(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{oversleep: ms / 2}
	arr := []arrival{{due: 10 * ms}, {due: 12 * ms}, {due: 30 * ms}}
	service := []time.Duration{5 * ms, 1 * ms, 1 * ms}
	ss := openLoop(clk, arr, 1, nil, func(_, i int) error {
		clk.advance(service[i])
		return nil
	})
	// #0 sleeps to 10, wakes at 10.5, ends 15.5. #1 was due at 12 but
	// the connection was busy: no sleep, starts at 15.5, ends 16.5.
	// #2 sleeps to 30, wakes at 30.5, ends 31.5.
	want := []sample{
		{due: 10 * ms, start: 10*ms + ms/2, end: 15*ms + ms/2, slept: true},
		{due: 12 * ms, start: 15*ms + ms/2, end: 16*ms + ms/2, slept: false},
		{due: 30 * ms, start: 30*ms + ms/2, end: 31*ms + ms/2, slept: true},
	}
	for i := range want {
		if ss[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, ss[i], want[i])
		}
	}
	// Latency runs from due, so #1 carries the stall of #0.
	if got := ss[1].latency(); got != 4*ms+ms/2 {
		t.Errorf("latency of the queued request = %v, want 4.5ms", got)
	}
	// Lag counts only the generator's own lateness on the requests it
	// waited for, not the wait for a busy connection.
	if got := lags(ss); len(got) != 2 || got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("lags = %v, want [0.5 0.5]", got)
	}
}

func TestBacklogGrew(t *testing.T) {
	ms := time.Millisecond
	steady := make([]sample, 100)
	growing := make([]sample, 100)
	for i := range steady {
		due := time.Duration(i) * ms
		steady[i] = sample{due: due, start: due + ms/10}
		growing[i] = sample{due: due, start: due + time.Duration(i)*ms/4}
	}
	if backlogGrew(steady, 2*ms) {
		t.Error("steady phase reported a growing backlog")
	}
	if !backlogGrew(growing, 2*ms) {
		t.Error("growing backlog not reported")
	}
}

func TestPoissonArrivalsFollowSeed(t *testing.T) {
	kind := func(r *rand.Rand) int { return r.IntN(4) }
	a := poissonArrivals(rand.New(rand.NewPCG(7, 1)), 1000, 1000, kind)
	b := poissonArrivals(rand.New(rand.NewPCG(7, 1)), 1000, 1000, kind)
	c := poissonArrivals(rand.New(rand.NewPCG(8, 1)), 1000, 1000, kind)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed gave different arrivals")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	if len(a) != 1000 {
		t.Fatalf("%d arrivals, want 1000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].due <= a[i-1].due {
			t.Fatalf("arrival %d out of order: %v", i, a[i].due)
		}
	}
	// 1000 arrivals at 1000/s span about a second.
	if last := a[len(a)-1].due; last < 800*time.Millisecond || last > 1200*time.Millisecond {
		t.Fatalf("1000 arrivals at 1000/s end at %v", last)
	}
}

func TestCheckResponseRejectsBadResponses(t *testing.T) {
	e := expect{bodyLen: 16, nodes: map[string]int{"node-1": 0, "node-2": 1}}
	if idx, err := e.checkResponse(http.StatusOK, "node-2", 16); err != nil || idx != 1 {
		t.Fatalf("good response: idx %d err %v", idx, err)
	}
	for _, tc := range []struct {
		status int
		node   string
		n      int64
	}{
		{http.StatusBadGateway, "node-1", 16},
		{http.StatusOK, "node-1", 15},
		{http.StatusOK, "node-9", 16},
		{http.StatusOK, "", 16},
	} {
		if _, err := e.checkResponse(tc.status, tc.node, tc.n); err == nil {
			t.Errorf("response %+v passed", tc)
		}
	}
}

func TestCheckWRR(t *testing.T) {
	caps := []int{1, 2, 1, 2}
	if err := checkWRR([]int64{1000, 2000, 1000, 2000}, caps); err != nil {
		t.Fatalf("exact split rejected: %v", err)
	}
	if err := checkWRR([]int64{1000, 2000, 2000, 1000}, caps); err == nil {
		t.Fatal("swapped split passed")
	}
	if err := checkWRR([]int64{0, 0, 0, 0}, caps); err == nil {
		t.Fatal("no traffic passed")
	}
	// A short phase may start and end mid-cycle.
	if err := checkWRR([]int64{13, 25, 12, 25}, caps); err != nil {
		t.Fatalf("short phase rejected: %v", err)
	}
	if err := checkWRR([]int64{1000, 2000, 1050, 2000}, caps); err == nil {
		t.Fatal("a 5% skew over 6,000 requests passed")
	}
}

func TestCheckPostsOnce(t *testing.T) {
	if err := checkPostsOnce(10, 10, 0); err != nil {
		t.Fatal(err)
	}
	if checkPostsOnce(10, 11, 0) == nil {
		t.Fatal("a retried POST passed")
	}
	if checkPostsOnce(10, 10, 1) == nil {
		t.Fatal("a truncated upload passed")
	}
}

func TestCheckConservation(t *testing.T) {
	good := vreqCounts{issued: 10, completed: 8, errors: 1, timeouts: 1, routed: 9, dropped: 1}
	if err := checkConservation(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []vreqCounts{
		{issued: 10, completed: 8, errors: 1, routed: 9, dropped: 1},                // one unsettled
		{issued: 10, completed: 9, errors: 1, routed: 8, dropped: 1},                // switch lost one
		{issued: 10, completed: 10, routed: 9, dropped: 1},                          // completed unrouted
		{issued: 10, completed: 10, routed: 10, dropped: 1, errors: 0, timeouts: 0}, // extra drop
	} {
		if checkConservation(bad) == nil {
			t.Errorf("%+v passed", bad)
		}
	}
}

func TestCheckReplayAndStranded(t *testing.T) {
	if checkReplay("a", "a", false) != nil || checkReplay("a", "b", false) == nil || checkReplay("a", "a", true) == nil {
		t.Fatal("replay check misjudged")
	}
	type avail struct{ CPU, Mem int }
	if checkNoStranded([]avail{{1, 2}}, []avail{{1, 2}}) != nil {
		t.Fatal("equal availability rejected")
	}
	if checkNoStranded([]avail{{1, 2}}, []avail{{1, 1}}) == nil {
		t.Fatal("stranded memory passed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the runs report
// in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type declared struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ name, unit string }, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: reported %s (%s), declared %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", e2eMetrics, b.EndToEnd)
	same("per_layer", layerMetrics, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadOrder) {
		t.Errorf("declared workloads %v, benchmark runs %v", names, workloadOrder)
	}
}
