package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"testing"
)

// referenceFrame is the two-step encoding appendFrame replaces: marshal
// the whole record, then prefix the header.
func referenceFrame(t *testing.T, rec Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[4:12], checksum(payload))
	copy(frame[frameHeader:], payload)
	return frame
}

// frameTypes mixes the plain names the platform uses with strings that
// need JSON escaping.
var frameTypes = []string{
	"", "service-admitted", SnapshotType, `a<b>&c`, "lt<", "gt>", "amp&",
	`"quoted"`, `back\slash`,
	"tab\there", "nul\x00ctl\x1f", "del\x7f", "héllo wörld", "日本語",
	"line\u2028sep\u2029", "bad\xffutf8", "emoji 🚀",
}

// randomData returns a json.Marshal-produced payload, or one of the
// edge shapes Data can take: nil, empty or null.
func randomData(rng *rand.Rand) json.RawMessage {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return json.RawMessage{}
	case 2:
		return json.RawMessage("null")
	}
	v := map[string]any{
		"service": frameTypes[rng.Intn(len(frameTypes))],
		"n":       rng.Intn(1 << 20),
		"f":       rng.Float64() * 1e6,
		"ok":      rng.Intn(2) == 0,
		"list":    []any{rng.Int63(), "x<y", nil},
	}
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

func randomRecord(rng *rand.Rand) Record {
	return Record{
		Seq:   rng.Uint64(),
		Epoch: uint64(rng.Intn(5)),
		At:    rng.Int63() - rng.Int63(),
		Type:  frameTypes[rng.Intn(len(frameTypes))],
		Data:  randomData(rng),
	}
}

func TestAppendFrameMatchesJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []byte("existing")
	for i := 0; i < 2000; i++ {
		rec := randomRecord(rng)
		want := referenceFrame(t, rec)
		got := appendFrame(append([]byte(nil), prefix...), rec)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("record %d: prefix overwritten", i)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("record %d %+v:\n got %q\nwant %q", i, rec, got[len(prefix):], want)
		}
	}
}

// TestBytesMatchReferenceAcrossSnapshots replays a seeded stream of
// appends and snapshots into a Log and a reference built from
// json.Marshal, checking the durable image after every operation. The
// tail buffer is reused after each snapshot, so earlier Bytes copies
// must stay intact too.
func TestBytesMatchReferenceAcrossSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := New()
	var snap, tail []byte
	type image struct{ got, want []byte }
	var images []image
	for i := 0; i < 500; i++ {
		typ := frameTypes[rng.Intn(len(frameTypes))]
		data := map[string]any{"i": i, "s": typ}
		var rec Record
		if rng.Intn(8) == 0 {
			rec = l.Snapshot(int64(i), data)
			snap, tail = referenceFrame(t, rec), nil
		} else {
			rec = l.Append(int64(i), typ, data)
			tail = append(tail, referenceFrame(t, rec)...)
		}
		want := append(append([]byte(nil), snap...), tail...)
		got := l.Bytes()
		if !bytes.Equal(got, want) || l.Size() != len(want) {
			t.Fatalf("op %d: image diverged (%d vs %d bytes)", i, len(got), len(want))
		}
		images = append(images, image{got, want})
	}
	for i, im := range images {
		if !bytes.Equal(im.got, im.want) {
			t.Fatalf("image %d changed after later appends", i)
		}
	}
}

// TestAppendAllocsConstantWhenWarm gates Append: once the tail buffer
// has grown, a record costs only the marshal of its data, whatever the
// snapshot cadence.
func TestAppendAllocsConstantWhenWarm(t *testing.T) {
	data := mut{Service: "web", N: 7}
	marshal := testing.AllocsPerRun(200, func() { json.Marshal(data) })
	l := New()
	i := 0
	step := func() {
		if i++; i%64 == 0 {
			l.Snapshot(int64(i), data)
		} else {
			l.Append(int64(i), "service-admitted", data)
		}
	}
	for j := 0; j < 256; j++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != marshal {
		t.Fatalf("warm Append = %v allocs/op, want %v (the data marshal alone)", a, marshal)
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	l := New()
	data := mut{Service: "web", N: 7}
	b.ReportAllocs()
	for i := 1; i <= b.N; i++ {
		if i%64 == 0 {
			l.Snapshot(int64(i), data)
		} else {
			l.Append(int64(i), "service-admitted", data)
		}
	}
}
