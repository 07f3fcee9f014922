package accounting

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// eagerRing is the reference ring: every slot allocated up front, the
// layout Ring used before it grew on demand.
type eagerRing struct {
	res     sim.Duration
	buckets []Bucket
	head, n int
}

func (r *eagerRing) Add(t sim.Time, u Usage) {
	start := sim.Time(int64(t) / int64(r.res) * int64(r.res))
	if r.n == 0 {
		r.head, r.n = 0, 1
		r.buckets[0] = Bucket{Start: start, Usage: u}
		return
	}
	if cur := &r.buckets[r.head]; start <= cur.Start {
		cur.Usage.Add(u)
		return
	}
	r.head = (r.head + 1) % len(r.buckets)
	if r.n < len(r.buckets) {
		r.n++
	}
	r.buckets[r.head] = Bucket{Start: start, Usage: u}
}

func (r *eagerRing) Buckets() []Bucket {
	out := make([]Bucket, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buckets[(r.head-r.n+1+i+len(r.buckets))%len(r.buckets)])
	}
	return out
}

func sumBuckets(bs []Bucket, since sim.Time) Usage {
	var total Usage
	for _, b := range bs {
		if b.Start >= since {
			total.Add(b.Usage)
		}
	}
	return total
}

// TestRingMatchesEagerReference drives a lazily grown ring and an eagerly
// allocated reference with the same seeded sample stream and checks
// every observable after every Add, plus the storage bound.
func TestRingMatchesEagerReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64, FineCap} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := NewRing(sim.Second, capacity)
			ref := &eagerRing{res: sim.Second, buckets: make([]Bucket, capacity)}
			now := sim.Time(0)
			for i := 0; i < 3*capacity+50; i++ {
				switch rng.Intn(4) {
				case 0: // same bucket or a late sample
					now -= sim.Time(rng.Int63n(int64(2 * sim.Second)))
				default: // advance, sometimes across an idle gap
					now += sim.Time(rng.Int63n(int64(5 * sim.Second)))
				}
				if now < 0 {
					now = 0
				}
				u := Usage{CPUMHzSeconds: float64(rng.Intn(100)), NetBytes: rng.Int63n(1 << 20)}
				r.Add(now, u)
				ref.Add(now, u)

				want := ref.Buckets()
				got := r.Buckets()
				if r.Len() != len(want) || len(got) != len(want) {
					t.Fatalf("cap %d seed %d step %d: len %d/%d, want %d", capacity, seed, i, r.Len(), len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("cap %d seed %d step %d: bucket %d = %+v, want %+v", capacity, seed, i, j, got[j], want[j])
					}
				}
				if r.Total() != sumBuckets(want, 0) {
					t.Fatalf("cap %d seed %d step %d: total %+v, want %+v", capacity, seed, i, r.Total(), sumBuckets(want, 0))
				}
				since := now - sim.Time(rng.Int63n(int64(10*sim.Second)))
				if r.Since(since) != sumBuckets(want, since) {
					t.Fatalf("cap %d seed %d step %d: since %v = %+v, want %+v", capacity, seed, i, since, r.Since(since), sumBuckets(want, since))
				}
				if cap(r.buckets) > capacity {
					t.Fatalf("cap %d seed %d step %d: storage %d buckets exceeds capacity", capacity, seed, i, cap(r.buckets))
				}
			}
			if cap(r.buckets) != capacity {
				t.Fatalf("cap %d seed %d: full ring holds %d buckets", capacity, seed, cap(r.buckets))
			}
		}
	}
}

// seriesSink makes the series escape, as it does when a Meter keeps it.
var seriesSink *Series

func newSeriesWithSample() {
	seriesSink = NewSeries()
	seriesSink.Add(sim.Time(sim.Second), Usage{CPUMHzSeconds: 1})
}

// TestNewSeriesCostIndependentOfCapacity gates the allocation of a fresh
// series and its first sample: one Series, three Rings and one bucket
// per ring, whatever the retention horizons are.
func TestNewSeriesCostIndependentOfCapacity(t *testing.T) {
	if a := testing.AllocsPerRun(100, newSeriesWithSample); a != 7 {
		t.Fatalf("NewSeries + first sample = %v allocs, want 7", a)
	}
	for _, capacity := range []int{1, CoarseCap, 1 << 20} {
		r := NewRing(sim.Second, capacity)
		r.Add(sim.Time(sim.Second), Usage{CPUMHzSeconds: 1})
		if cap(r.buckets) != 1 {
			t.Fatalf("capacity %d: first sample allocated %d buckets, want 1", capacity, cap(r.buckets))
		}
	}
}

func BenchmarkNewSeries(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSeriesWithSample()
	}
}
