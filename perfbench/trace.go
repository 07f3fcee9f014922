package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share req; parent names the span that caused this one within it.
type span struct {
	name, parent string
	start, end   time.Duration // offsets from the recorder's epoch
	req          uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in a preallocated buffer so recording costs one
// atomic add and a copy. A nil recorder records nothing: the timed runs
// pass nil.
type recorder struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	lost  atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

// now returns the recorder's clock reading.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add records a span that started at start and ends now.
func (r *recorder) add(name, parent string, req uint64, start time.Duration) {
	if r == nil {
		return
	}
	end := r.now()
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.lost.Add(1)
		return
	}
	r.spans[i] = span{name: name, parent: parent, start: start, end: end, req: req}
}

// recorded returns the spans recorded so far; call it only once every
// recording goroutine has finished.
func (r *recorder) recorded() []span {
	n := min(r.n.Load(), int64(len(r.spans)))
	return r.spans[:n]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are the spans of
// the same request whose parent is the span's name; they may overlap
// each other (a retry racing a slow attempt) or overrun the parent, so
// their intervals are clipped to the parent and merged before the
// covered length is subtracted.
func selfTimes(spans []span) []time.Duration {
	byReq := make(map[uint64][]int)
	for i, s := range spans {
		byReq[s.req] = append(byReq[s.req], i)
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ lo, hi time.Duration }
	for _, idx := range byReq {
		for _, p := range idx {
			ps := spans[p]
			var kids []iv
			for _, c := range idx {
				cs := spans[c]
				if c == p || cs.parent != ps.name {
					continue
				}
				lo, hi := max(cs.start, ps.start), min(cs.end, ps.end)
				if hi > lo {
					kids = append(kids, iv{lo, hi})
				}
			}
			sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
			var covered time.Duration
			var cur iv
			for i, k := range kids {
				switch {
				case i == 0:
					cur = k
				case k.lo <= cur.hi:
					cur.hi = max(cur.hi, k.hi)
				default:
					covered += cur.hi - cur.lo
					cur = k
				}
			}
			if len(kids) > 0 {
				covered += cur.hi - cur.lo
			}
			out[p] = ps.dur() - covered
		}
	}
	return out
}

// layerTimes collects, in microseconds, the durations and self times of
// every span with the given name.
func layerTimes(spans []span, self []time.Duration, name string) (total, selfUs []float64) {
	for i, s := range spans {
		if s.name == name {
			total = append(total, us(s.dur()))
			selfUs = append(selfUs, us(self[i]))
		}
	}
	return total, selfUs
}

// writeSpans writes spans and their self times as CSV to path.
func writeSpans(path string, spans []span, self []time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,parent,req,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", s.name, s.parent, s.req,
			s.start.Nanoseconds(), s.end.Nanoseconds(), self[i].Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
