package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are the end-to-end metrics every timed run puts on its
// result line, with their units. Each workload gives them its own
// meaning (NOTES.md). p99_ms and max_rps are measured and printed too,
// but are not on the result line: their spread over ten seeds on a
// shared 2-core host reached or passed the largest bound BENCHMARK.json
// may set.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"mem_peak_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.trace_overhead_pct", "%"},
	{"proc.alloc_kb_per_req", "KB"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.heap_peak_mb", "MB"},
	{"realswitch.serve_p50_us", "us"},
	{"realswitch.serve_p99_us", "us"},
	{"realswitch.self_p50_us", "us"},
	{"realswitch.routed", "count"},
	{"realswitch.dropped", "count"},
	{"realswitch.retried", "count"},
	{"realswitch.upstream_dials", "count"},
	{"realswitch.wrr_skew", "ratio"},
	{"backend.serve_p50_us", "us"},
	{"api.create_p50_ms", "ms"},
	{"api.resize_p50_ms", "ms"},
	{"api.delete_p50_ms", "ms"},
	{"api.status_p50_ms", "ms"},
	{"api.metrics_p50_ms", "ms"},
	{"api.metrics_bytes", "B"},
	{"api.http_overhead_p50_us", "us"},
	{"soda.download_vs_p50", "vs"},
	{"soda.boot_vs_p50", "vs"},
	{"soda.peer_byte_frac", "ratio"},
	{"simnet.origin_mb", "MB"},
	{"journal.bytes_per_op", "B"},
	{"journal.records_per_op", "count"},
	{"sim.events_per_ctl_op", "count"},
	{"sim.events_per_vreq", "count"},
	{"sim.mevents_per_s", "1/s"},
	{"sim.pending_max", "count"},
	{"svcswitch.routed", "count"},
	{"svcswitch.dropped", "count"},
	{"svcswitch.retried", "count"},
	{"reqtrace.retained", "count"},
}

// report accumulates one run: the operation counts, the metrics of the
// result line, the human-readable lines printed before it, and every
// output check that failed.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	lines             []string
	failures          []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a result-line metric and prints it by name with its unit.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.printf("%-30s %.6g %s", name, v, unit)
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records a failed output check; nil passes.
func (r *report) check(what string, err error) {
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// count adds operations to the attempted and failed totals.
func (r *report) count(attempted, failed int) {
	r.attempted += int64(attempted)
	r.failed += int64(failed)
}

// emit prints the report and its result line, keeping only the metrics
// the run's mode declares, and returns whether the run was correct.
func (r *report) emit(declared []struct{ name, unit string }) bool {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, m := range declared {
		v, ok := r.metrics[m.name]
		if !ok {
			r.failures = append(r.failures, "metric "+m.name+" was not measured")
			continue
		}
		if v.Unit != m.unit {
			r.failures = append(r.failures, fmt.Sprintf("metric %s in %s, declared %s", m.name, v.Unit, m.unit))
		}
		res.Metrics[m.name] = v
	}
	if res.Attempted < 1 {
		r.failures = append(r.failures, "no operation attempted")
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	res.Correct = len(r.failures) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

// fmtList formats per-trial figures.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// environment describes the host every report was measured on.
func environment() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q network=loopback",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// setupReps is how many times a run sets the workload up; setup_s is
// their median.
const setupReps = 41

// setupRepeated builds the workload setupReps times, keeping the last,
// and returns it with the median set-up time in seconds.
func setupRepeated[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 {
			discard(v)
		}
		last = v
	}
	return last, median(times), nil
}
