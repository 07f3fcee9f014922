package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// repeatMode runs every workload (or only the named one) n times with
// seeds seed, seed+1, …, interleaving the workloads so a slow spell of
// the host touches all of them alike, and prints for each metric its
// median, quartiles, spread (interquartile range over median) and
// min/max ratio. Each run is a fresh process, so no run inherits
// another's heap. It returns the exit code.
func repeatMode(n int, only string, seed uint64, seconds float64, trace int, out string) int {
	names := workloadOrder
	if only != "" {
		if _, ok := workloads[only]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", only)
			return 2
		}
		names = []string{only}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(environment())
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	code := 0
	for r := 0; r < n; r++ {
		for _, w := range names {
			s := seed + uint64(r)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			stdout, err := cmd.Output()
			took := time.Since(t0)
			res, perr := lastResult(stdout)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed: %v %v\n", w, s, err, perr)
				code = 1
				continue
			}
			fmt.Printf("run %d %s seed %d: %d attempted, %d failed, %.1fs\n", r+1, w, s, res.Attempted, res.Failed, took.Seconds())
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for k, m := range res.Metrics {
				values[w][k] = append(values[w][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	for _, w := range names {
		keys := make([]string, 0, len(values[w]))
		for k := range values[w] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("\n%s (%d runs)\n%-30s %12s %12s %12s %8s %8s %s\n", w, n, "metric", "q1", "median", "q3", "spread", "min/max", "unit")
		for _, k := range keys {
			fmt.Println(spreadLine(k, values[w][k], units[k]))
		}
	}
	return code
}

// spreadLine formats one metric's spread over repeated runs.
func spreadLine(name string, xs []float64, unit string) string {
	q1, q2, q3 := quartiles(xs)
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	spread, ratio := 0.0, 1.0
	if q2 != 0 {
		spread = (q3 - q1) / q2
	}
	if hi != 0 {
		ratio = lo / hi
	}
	return fmt.Sprintf("%-30s %12.5g %12.5g %12.5g %8.3f %8.3f %s", name, q1, q2, q3, spread, ratio, unit)
}

// lastResult parses the result line a run ends its output with.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
