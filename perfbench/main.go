// Command perfbench is the repository's benchmark. It runs one workload
// against the live service switch (realswitch) or the simulated
// platform (hup, api, soda), checks the program's outputs, and prints
// the measured metrics by name with their units, ending with one JSON
// result line. With -trace it instead records spans around the calls
// into each layer and reports the per-layer breakdown. With -repeat it
// runs every workload several times, interleaved, and prints each
// metric's spread. NOTES.md explains the workloads and metrics.
//
// Usage:
//
//	perfbench -workload proxy-small -seed 1 -seconds 30 -trace 0
//	perfbench -repeat 10 -seconds 30
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what a run is given: its seed, its measuring budget and
// where to write the traced spans.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	out      string
	sideOf   string // the workload a side pass runs for, or ""
}

// rng returns the run's random stream number stream; the same seed gives
// the same inputs.
func (c runConfig) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

// dur returns frac of the run's measuring budget.
func (c runConfig) dur(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// benchWorkload is one benchmark workload: its timed run and its traced run.
type benchWorkload struct {
	timed, traced func(runConfig, *report) error
	// side is the workload whose traced run supplies the per-layer
	// metrics of the layers this one does not exercise.
	side string
}

var workloads = map[string]benchWorkload{
	"proxy-small": {timed: proxySmall.timed, traced: proxySmall.traced, side: "platform"},
	"proxy-large": {timed: proxyLarge.timed, traced: proxyLarge.traced, side: "platform"},
	"platform":    {timed: platformTimed, traced: platformTraced, side: "proxy-small"},
}

// workloadOrder is the order the repeat mode interleaves workloads in.
var workloadOrder = []string{"proxy-small", "proxy-large", "platform"}

// sideShare is the share of the budget a traced run gives its side pass.
const sideShare = 0.3

func main() {
	name := flag.String("workload", "", "workload to run: proxy-small, proxy-large or platform")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 30, "measuring budget of one run, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/spans", "directory the traced run writes its spans to")
	repeat := flag.Int("repeat", 0, "run every workload this many times, interleaved, and print the spread")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatMode(*repeat, *name, *seed, *seconds, *trace, *out))
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, out: *out}
	fmt.Println(environment())
	fmt.Printf("workload %s, seed %d, %gs, trace %d\n", *name, *seed, *seconds, *trace)
	rep := newReport()
	declared := e2eMetrics
	var err error
	if *trace == 1 {
		declared = layerMetrics
		err = tracedRun(w, cfg, rep)
	} else {
		err = w.timed(cfg, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.emit(declared) {
		os.Exit(1)
	}
}

// tracedRun runs the workload's traced run, then a shorter traced run
// of its side workload for the layers it does not exercise, and keeps
// from the side run only the metrics the first did not measure.
func tracedRun(w benchWorkload, cfg runConfig, rep *report) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := w.traced(cfg, rep); err != nil {
		return err
	}
	side := newReport()
	scfg := cfg
	scfg.workload, scfg.seconds, scfg.sideOf = w.side, cfg.seconds*sideShare, cfg.workload
	rep.printf("side pass: %s traced for %gs, for the layers %s does not exercise", w.side, scfg.seconds, cfg.workload)
	if err := workloads[w.side].traced(scfg, side); err != nil {
		return fmt.Errorf("side pass %s: %w", w.side, err)
	}
	for k, v := range side.metrics {
		if _, ok := rep.metrics[k]; !ok {
			rep.metrics[k] = v
		}
	}
	for _, l := range side.lines {
		rep.printf("  [%s] %s", w.side, l)
	}
	for _, f := range side.failures {
		rep.failures = append(rep.failures, "["+w.side+"] "+f)
	}
	rep.attempted += side.attempted
	rep.failed += side.failed
	return nil
}

// spanFile names the span file of a traced run.
func spanFile(cfg runConfig) string {
	name := cfg.workload
	if cfg.sideOf != "" {
		name += "-side-of-" + cfg.sideOf
	}
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.csv", name, cfg.seed))
}
