package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; a tail backed by fewer samples is not reported.
const minBeyond = 10

// tailLevels are the percentiles a timing's tail may be reported at,
// highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// quantile returns the q-quantile of xs by nearest rank: the smallest
// sample with at least q·n samples at or below it. It returns 0 for no
// samples and leaves xs as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLevel returns the highest of tailLevels that leaves at least
// minBeyond of n samples beyond it, or 0 when even the median does not.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timing formats a latency sample set (in the given unit) the way every
// timing is reported: its median and the highest percentile backed by
// at least minBeyond samples, with the sample count.
func timing(name string, xs []float64, unit string) string {
	n := len(xs)
	if n == 0 {
		return fmt.Sprintf("%-24s no samples", name)
	}
	q := tailLevel(n)
	tail := "-"
	if q > 0 {
		tail = fmt.Sprintf("p%s %.4g %s", trimPct(q), quantile(xs, q), unit)
	}
	return fmt.Sprintf("%-24s p50 %.4g %s, %s (n=%d)", name, median(xs), unit, tail, n)
}

// trimPct renders a quantile as a percentile label: 0.999 → "99.9".
func trimPct(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e6)/1e4)
}

// quartiles returns the first quartile, median and third quartile of
// xs with the same exclusive method as Python's statistics.quantiles
// (n=4), which the repeat mode's spread figures must agree with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive", n=4, in its own
		// integer arithmetic (it extrapolates at the ends).
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
