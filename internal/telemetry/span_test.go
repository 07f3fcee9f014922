package telemetry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testClock is a manually advanced clock for deterministic span timing.
type testClock struct{ now time.Duration }

func (c *testClock) clock() time.Duration    { return c.now }
func (c *testClock) advance(d time.Duration) { c.now += d }

func TestSpanTreeTiming(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)

	root := tr.StartRoot("service.create", L("service", "web"))
	clk.advance(10 * time.Millisecond)
	adm := root.StartChild("admission")
	clk.advance(5 * time.Millisecond)
	adm.EndSpan()
	prime := root.StartChild("prime", L("node", "web-0"))
	dl := prime.StartChild("image.download")
	clk.advance(20 * time.Second)
	dl.EndSpan()
	boot := prime.StartChild("guest.boot")
	clk.advance(30 * time.Second)
	boot.EndSpan()
	prime.EndSpan()
	root.EndSpan()

	v := root.View()
	if v.Name != "service.create" || v.Attrs["service"] != "web" {
		t.Fatalf("root = %+v", v)
	}
	if len(v.Children) != 2 {
		t.Fatalf("children = %d", len(v.Children))
	}
	p, ok := v.Child("prime")
	if !ok {
		t.Fatal("no prime child")
	}
	d, ok := p.Child("image.download")
	if !ok || d.Duration() < 19.9 || d.Duration() > 20.1 {
		t.Fatalf("download = %+v", d)
	}
	b, _ := p.Child("guest.boot")
	// Children nest within the parent and tile it end to end.
	if d.StartSec < p.StartSec || b.EndSec > p.EndSec+1e-9 {
		t.Fatal("child spans escape parent")
	}
	if got := root.Duration(); got != 50*time.Second+15*time.Millisecond {
		t.Fatalf("root duration = %v", got)
	}
	if _, ok := v.Find("guest.boot"); !ok {
		t.Fatal("Find missed a grandchild")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every operation on a nil span must be a no-op, not a panic.
	child := sp.StartChild("y")
	child.Annotate("k", "v")
	child.EndSpan()
	sp.Fail(errors.New("boom"))
	if sp.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	if _, ok := sp.Attr("k"); ok {
		t.Fatal("nil span attr")
	}
	if v := sp.View(); v.Name != "" {
		t.Fatal("nil span view")
	}
	if tr.Roots() != nil {
		t.Fatal("nil tracer roots")
	}
	tr.OnEnd(func(*Span) {})
	tr.SetSpanLimit(5)
}

func TestSpanDoubleEndAndFail(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	sp := tr.StartRoot("op")
	clk.advance(time.Second)
	sp.EndSpan()
	clk.advance(time.Second)
	sp.EndSpan() // no-op
	if sp.Duration() != time.Second {
		t.Fatalf("duration = %v", sp.Duration())
	}
	f := tr.StartRoot("failing")
	f.Fail(errors.New("no capacity"))
	if msg, ok := f.Attr("error"); !ok || msg != "no capacity" {
		t.Fatalf("error attr = %q, %v", msg, ok)
	}
}

func TestOnEndHook(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	var ended []string
	tr.OnEnd(func(s *Span) { ended = append(ended, s.Name) })
	root := tr.StartRoot("a")
	c := root.StartChild("b")
	c.EndSpan()
	root.EndSpan()
	if len(ended) != 2 || ended[0] != "b" || ended[1] != "a" {
		t.Fatalf("ended = %v", ended)
	}
}

func TestSpanLimitEvictsOldest(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	tr.SetSpanLimit(3)
	for i := 0; i < 5; i++ {
		tr.StartRoot("op" + string(rune('0'+i))).EndSpan()
	}
	roots := tr.Roots()
	if len(roots) != 3 {
		t.Fatalf("retained %d roots", len(roots))
	}
	if roots[0].Name != "op2" || roots[2].Name != "op4" {
		t.Fatalf("roots = %v", roots)
	}
}

func TestRenderTextTree(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	root := tr.StartRoot("service.create", L("service", "web"))
	clk.advance(2 * time.Second)
	c := root.StartChild("prime", L("node", "web-0"))
	clk.advance(3 * time.Second)
	c.EndSpan()
	root.EndSpan()
	open := tr.StartRoot("in.flight")
	_ = open
	out := tr.RenderText()
	for _, want := range []string{"service.create service=web", "  prime node=web-0", "(5s)", "(open)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestWallTracer(t *testing.T) {
	tr := WallTracer()
	sp := tr.StartRoot("wall")
	sp.EndSpan()
	if sp.Duration() < 0 {
		t.Fatal("negative wall duration")
	}
}

// rootNames lists the retained roots' names, oldest first.
func rootNames(tr *Tracer) []string {
	var names []string
	for _, r := range tr.Roots() {
		names = append(names, r.Name)
	}
	return names
}

// wantNames returns "r<from>".."r<to-1>".
func wantNames(from, to int) []string {
	var names []string
	for i := from; i < to; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}
	return names
}

func TestSpanRingKeepsNewestOldestFirst(t *testing.T) {
	for _, limit := range []int{1, 2, 5, 16} {
		tr := NewTracer((&testClock{}).clock)
		tr.SetSpanLimit(limit)
		for i := 0; i < 3*limit; i++ {
			tr.StartRoot(fmt.Sprintf("r%d", i)).EndSpan()
			from := max(0, i+1-limit)
			if got, want := rootNames(tr), wantNames(from, i+1); !reflect.DeepEqual(got, want) {
				t.Fatalf("limit %d after %d roots: %v, want %v", limit, i+1, got, want)
			}
		}
	}
}

func TestSetSpanLimitMidStream(t *testing.T) {
	tr := NewTracer((&testClock{}).clock)
	tr.SetSpanLimit(5)
	next := 0
	start := func(n int) {
		for ; n > 0; n-- {
			tr.StartRoot(fmt.Sprintf("r%d", next)).EndSpan()
			next++
		}
	}
	check := func(step string, want []string) {
		t.Helper()
		if got := rootNames(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %v, want %v", step, got, want)
		}
	}
	start(7) // wrapped: head is mid-array
	check("wrapped", wantNames(2, 7))
	tr.SetSpanLimit(3) // shrink keeps the newest
	check("shrunk", wantNames(4, 7))
	start(2)
	check("shrunk+2", wantNames(6, 9))
	tr.SetSpanLimit(6) // grow keeps everything and fills before evicting
	check("grown", wantNames(6, 9))
	start(3)
	check("grown+3", wantNames(6, 12))
	start(4)
	check("grown+7", wantNames(10, 16))
	tr.SetSpanLimit(0) // default limit
	start(2)
	check("default", wantNames(10, 18))
}

// TestStartRootFullIsOneAlloc gates the eviction path: once the ring is
// full a root costs its own Span and nothing proportional to the limit.
func TestStartRootFullIsOneAlloc(t *testing.T) {
	for _, limit := range []int{1, 64, DefaultSpanLimit, 8 * DefaultSpanLimit} {
		tr := fullTracer(limit)
		if a := testing.AllocsPerRun(200, func() { tr.StartRoot("op") }); a != 1 {
			t.Fatalf("limit %d: StartRoot on a full tracer = %v allocs, want 1", limit, a)
		}
	}
}

func fullTracer(limit int) *Tracer {
	tr := NewTracer((&testClock{}).clock)
	tr.SetSpanLimit(limit)
	for i := 0; i < limit; i++ {
		tr.StartRoot("warm")
	}
	return tr
}

func BenchmarkStartRootFull(b *testing.B) {
	tr := fullTracer(DefaultSpanLimit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartRoot("op")
	}
}
