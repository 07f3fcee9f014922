// Package journal is the Master's write-ahead log: an append-only
// sequence of checksummed frames recording every control-plane state
// mutation, plus periodic snapshots that bound replay time.
//
// The log models the stable storage of SODA's hosting utility: the
// leader appends synchronously before acting on a mutation, a warm
// standby tails the stream, and after a crash the surviving bytes are
// replayed to reconstruct the exact pre-crash state.  Frames are
// self-delimiting and individually checksummed so that a torn tail
// (partial final write) or a corrupted record is detected and replay
// stops cleanly at the last valid frame instead of propagating garbage.
//
// Frame layout (all integers big-endian):
//
//	[4B payload length][8B FNV-1a 64 of payload][payload]
//
// The payload is the JSON encoding of a Record.  A snapshot is an
// ordinary record (type "snapshot") that carries the full serialized
// state; when one is taken the frames before it are dropped and the log
// restarts from the snapshot frame, so Bytes() is always
// snapshot-then-tail.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"unicode/utf8"

	"repro/internal/telemetry"
)

// frameHeader is the fixed per-frame prefix: payload length + checksum.
const frameHeader = 4 + 8

// SnapshotType is the record type reserved for full-state snapshots.
const SnapshotType = "snapshot"

// Record is one journaled state mutation.  Data is the JSON payload of
// the mutation; its shape is owned by the writer (internal/soda).
type Record struct {
	Seq   uint64          `json:"seq"`
	Epoch uint64          `json:"epoch"`
	At    int64           `json:"at"` // virtual nanoseconds
	Type  string          `json:"type"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Log is an in-memory append-only journal.  It is not safe for
// concurrent use; in the simulation all appends happen on the
// single-threaded kernel.
type Log struct {
	snapshot []byte // encoded frame of the latest snapshot record, or nil
	snapSeq  uint64 // seq of the snapshot record
	tail     []byte // frames appended since the snapshot
	tailRecs int    // record count in tail

	seq   uint64
	epoch uint64

	onAppend []func(Record)

	bytesCtr *telemetry.Counter
	recsCtr  *telemetry.Counter
	snapsCtr *telemetry.Counter
}

// New returns an empty journal at epoch 0.
func New() *Log { return &Log{} }

// Instrument attaches journal counters to the registry.
func (l *Log) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	l.bytesCtr = reg.Counter("soda_journal_bytes_total")
	l.recsCtr = reg.Counter("soda_journal_records_total")
	l.snapsCtr = reg.Counter("soda_journal_snapshots_total")
}

// SetEpoch stamps subsequently appended records with the given epoch.
func (l *Log) SetEpoch(e uint64) { l.epoch = e }

// Epoch returns the epoch stamped on new records.
func (l *Log) Epoch() uint64 { return l.epoch }

// Seq returns the sequence number of the last appended record.
func (l *Log) Seq() uint64 { return l.seq }

// Size returns the byte length of the retained log (snapshot + tail).
func (l *Log) Size() int { return len(l.snapshot) + len(l.tail) }

// TailRecords returns the number of records since the last snapshot.
func (l *Log) TailRecords() int { return l.tailRecs }

// OnAppend registers a hook invoked for every appended record,
// including snapshots.  The standby uses this to tail the stream.
func (l *Log) OnAppend(fn func(Record)) {
	l.onAppend = append(l.onAppend, fn)
}

// Append journals one mutation and returns the record.  data is
// marshalled to JSON; a marshal failure panics, because an
// unserializable mutation is a programming error, not a runtime
// condition.
func (l *Log) Append(at int64, typ string, data any) Record {
	rec := l.makeRecord(at, typ, data)
	n := len(l.tail)
	l.tail = appendFrame(l.tail, rec)
	l.tailRecs++
	l.count(len(l.tail) - n)
	l.notify(rec)
	return rec
}

// Snapshot journals a full-state snapshot and truncates the log to it:
// every frame before the snapshot is dropped.  Both buffers are reused
// in place; Bytes hands out copies, so no caller holds on to them.
func (l *Log) Snapshot(at int64, data any) Record {
	rec := l.makeRecord(at, SnapshotType, data)
	l.snapshot = appendFrame(l.snapshot[:0], rec)
	l.snapSeq = rec.Seq
	l.tail = l.tail[:0]
	l.tailRecs = 0
	l.count(len(l.snapshot))
	if l.snapsCtr != nil {
		l.snapsCtr.Inc()
	}
	l.notify(rec)
	return rec
}

func (l *Log) makeRecord(at int64, typ string, data any) Record {
	raw, err := json.Marshal(data)
	if err != nil {
		panic(fmt.Sprintf("journal: marshal %s: %v", typ, err))
	}
	l.seq++
	return Record{Seq: l.seq, Epoch: l.epoch, At: at, Type: typ, Data: raw}
}

func (l *Log) count(n int) {
	if l.bytesCtr != nil {
		l.bytesCtr.Add(int64(n))
	}
	if l.recsCtr != nil {
		l.recsCtr.Inc()
	}
}

func (l *Log) notify(rec Record) {
	for _, fn := range l.onAppend {
		fn(rec)
	}
}

// Bytes returns the durable image of the log: the snapshot frame (if
// any) followed by every frame appended since.  The copy is private to
// the caller.
func (l *Log) Bytes() []byte {
	out := make([]byte, 0, len(l.snapshot)+len(l.tail))
	out = append(out, l.snapshot...)
	out = append(out, l.tail...)
	return out
}

// appendFrame appends rec's frame to dst, encoding the payload once in
// place.  The payload is byte-for-byte json.Marshal(rec): Data already
// comes from json.Marshal, so it is compact and HTML-escaped and is
// copied verbatim, and an empty Data is omitted as its tag says.
func appendFrame(dst []byte, rec Record) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, rec.Epoch, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, rec.At, 10)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, rec.Type)
	if len(rec.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = append(dst, rec.Data...)
	}
	dst = append(dst, '}')
	payload := dst[off+frameHeader:]
	binary.BigEndian.PutUint32(dst[off:off+4], uint32(len(payload)))
	binary.BigEndian.PutUint64(dst[off+4:off+12], checksum(payload))
	return dst
}

// appendJSONString appends s encoded as encoding/json encodes it.
// Record types are plain ASCII names and are copied between quotes;
// anything that needs escaping goes through encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// ReplayReport describes how far a replay got and why it stopped.
type ReplayReport struct {
	Records   int    // valid records decoded
	Bytes     int    // bytes consumed by valid frames
	Truncated bool   // true if trailing bytes were discarded
	Reason    string // why replay stopped early, "" if clean
}

// Replay decodes a journal image frame by frame.  It never fails: on a
// short header, short payload, checksum mismatch, or undecodable
// payload it stops at the last valid record and reports the reason.
// This is the crash-consistency contract — a torn tail write yields the
// longest valid prefix.
func Replay(data []byte) ([]Record, ReplayReport) {
	var recs []Record
	rep := ReplayReport{}
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("short header at offset %d", off)
			break
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint64(data[off+4 : off+12])
		if n <= 0 || len(data)-off-frameHeader < n {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("short payload at offset %d (want %d bytes)", off, n)
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if checksum(payload) != sum {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("checksum mismatch at offset %d", off)
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("undecodable record at offset %d: %v", off, err)
			break
		}
		recs = append(recs, rec)
		off += frameHeader + n
		rep.Records++
		rep.Bytes = off
	}
	return recs, rep
}
