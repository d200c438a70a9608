package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/internal/dataset"
	"gkmeans/internal/wal"
)

// replayCase is one index shape a replay must restore bit for bit.
type replayCase struct {
	workers int
	routed  bool
	u8      bool
}

func (c replayCase) String() string {
	layout, dt := "monolithic", "float32"
	if c.routed {
		layout = "routed"
	}
	if c.u8 {
		dt = "uint8"
	}
	return fmt.Sprintf("%s-%s-workers%d", layout, dt, c.workers)
}

const replayName = "rp"

// writeReplayLog builds a small index of c's shape, saves it, and drives a
// durable server through five memtable flushes with deletes aimed at
// original, flushed and still-buffered rows, then abandons it with 39 rows
// buffered, as a crash would. It returns the saved index and the data
// directory holding the log.
func writeReplayLog(t testing.TB, c replayCase) (orig, dataDir string) {
	t.Helper()
	gen := dataset.GloVeLike
	if c.u8 {
		gen = dataset.SIFTLike // exact bytes
	}
	data, extra := gen(400, 3), gen(299, 4)
	opts := []gkmeans.Option{gkmeans.WithKappa(8), gkmeans.WithXi(20), gkmeans.WithTau(3),
		gkmeans.WithSeed(5), gkmeans.WithWorkers(c.workers)}
	if c.routed {
		opts = append(opts, gkmeans.WithShards(2), gkmeans.WithRouting(4))
	}
	if c.u8 {
		opts = append(opts, gkmeans.WithDType(gkmeans.DTypeUint8))
	}
	idx, err := gkmeans.Build(context.Background(), data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	orig, dataDir = filepath.Join(dir, "orig.gkx"), filepath.Join(dir, "state")
	if err := gkmeans.SaveIndex(orig, idx); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: -1, DataDir: dataDir, MemtableThreshold: 40})
	if err := s.RegisterFile(replayName, orig); err != nil {
		t.Fatal(err)
	}
	bound := int32(idx.N())
	const batch = 13 // four requests fill the memtable: flushes of 52 rows
	for req, lo := 0, 0; lo < extra.N; req, lo = req+1, lo+batch {
		rows := make([][]float32, batch)
		for i := range rows {
			rows[i] = extra.Row(lo + i)
		}
		resp := mustInsert(t, s, replayName, rows)
		if req%2 == 0 {
			continue
		}
		// One original row, and the first row of this request: buffered when
		// the request did not flush, part of the new shard when it did.
		doomed := []int32{int32(req), resp.FirstID}
		if flushedHi := bound + int32(lo+batch-resp.Pending); flushedHi > bound {
			doomed = append(doomed, flushedHi-1) // the newest flushed row
		}
		mustDelete(t, s, replayName, doomed...)
	}
	return orig, dataDir
}

// logRecords returns every payload of the log at path.
func logRecords(t testing.TB, path string) [][]byte {
	t.Helper()
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]byte
	if _, err := l.Replay(func(p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// rewriteLog writes a data directory holding a log of records, each passed
// through edit (nil drops it), and returns the directory.
func rewriteLog(t testing.TB, records [][]byte, edit func(op wal.Op, payload []byte) []byte) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, replayName+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range records {
		op, err := wal.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if p = edit(op, p); p != nil {
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// stripSegments is the edit that drops every segment record: the log a
// server that logs no built shards would have written.
func stripSegments(op wal.Op, p []byte) []byte {
	if op.Segment != nil {
		return nil
	}
	return p
}

// restarted is what a restart over one data directory restored.
type restarted struct {
	sum         [32]byte // sha256 of the index as SaveIndex writes it
	graphTime   time.Duration
	pending     []float32
	pendingRows int
	memDel      []int32
	log         string
}

func restart(t testing.TB, orig, dataDir string) restarted {
	t.Helper()
	var logBuf bytes.Buffer
	s := New(Config{Window: -1, DataDir: dataDir, MemtableThreshold: 40, Logger: log.New(&logBuf, "", 0)})
	if err := s.RegisterFile(replayName, orig); err != nil {
		t.Fatal(err)
	}
	defer s.BeginShutdown()
	e, _ := s.reg.get(replayName)
	idx := e.index()
	path := filepath.Join(t.TempDir(), "saved.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return restarted{sum: sha256.Sum256(raw), graphTime: idx.GraphTime(),
		pending: slices.Clone(e.mem.Data()), pendingRows: e.mem.Rows(), memDel: e.memDelIDs(), log: logBuf.String()}
}

func sameRestart(t *testing.T, got, want restarted) {
	t.Helper()
	if got.sum != want.sum {
		t.Fatalf("restored index bytes differ: sha256 %x, want %x", got.sum, want.sum)
	}
	if fmt.Sprint(got.pending) != fmt.Sprint(want.pending) || fmt.Sprint(got.memDel) != fmt.Sprint(want.memDel) {
		t.Fatalf("restored memtable differs: %d rows, deletes %v; want %d rows, deletes %v",
			len(got.pending), got.memDel, len(want.pending), want.memDel)
	}
}

// A replay that adopts the logged shards restores exactly the index, the
// buffered rows and the buffered deletes that building them again does, on
// every index shape and at any worker count.
func TestReplayAdoptingEqualsRebuilding(t *testing.T) {
	for _, c := range []replayCase{
		{workers: 1}, {workers: 2},
		{workers: 1, routed: true}, {workers: 2, routed: true},
		{workers: 1, u8: true}, {workers: 2, routed: true, u8: true},
	} {
		t.Run(c.String(), func(t *testing.T) {
			orig, dataDir := writeReplayLog(t, c)
			records := logRecords(t, filepath.Join(dataDir, replayName+".wal"))
			segments := 0
			for _, p := range records {
				if op, _ := wal.Decode(p); op.Segment != nil {
					segments++
				}
			}
			if segments != 5 {
				t.Fatalf("log holds %d segment records, want one per flush (5)", segments)
			}
			adopted := restart(t, orig, dataDir)
			rebuilt := restart(t, orig, rewriteLog(t, records, stripSegments))
			sameRestart(t, adopted, rebuilt)
			if adopted.pendingRows != 39 {
				t.Fatalf("restored %d buffered rows, want 39", adopted.pendingRows)
			}
			// A loaded index has no graph time: any here is a replayed build.
			if adopted.graphTime != 0 || rebuilt.graphTime == 0 {
				t.Fatalf("graph time %v adopting, %v rebuilding: want none and some", adopted.graphTime, rebuilt.graphTime)
			}
			if strings.Contains(adopted.log, "refusal") {
				t.Fatalf("a logged shard was refused: %s", adopted.log)
			}
		})
	}
}

// A segment record whose CRC holds but whose state disagrees with what the
// flush would build is refused with its reason, and the rows are built as
// if the record were not there.
func TestReplayRefusesInconsistentSegment(t *testing.T) {
	orig, dataDir := writeReplayLog(t, replayCase{workers: 1, routed: true})
	records := logRecords(t, filepath.Join(dataDir, replayName+".wal"))
	want := restart(t, orig, rewriteLog(t, records, stripSegments))

	// Offsets into an encoded segment: the 52-byte header (base id at 4,
	// generation at 8, options at 16, rows CRC at 48), then the graph
	// section's 8-byte length, 12-byte graph header and node 0's list
	// length, so node 0's first neighbour id sits at 76.
	for _, tc := range []struct {
		name, reason string
		edit         func(state []byte) []byte
	}{
		{"neighbour out of range", "out of range", func(s []byte) []byte {
			binary.LittleEndian.PutUint32(s[76:], 1<<20)
			return s
		}},
		{"wrong generation", "generation", func(s []byte) []byte { s[8]++; return s }},
		{"wrong rows CRC", "rows CRC", func(s []byte) []byte { s[48] ^= 1; return s }},
		{"wrong options", "options", func(s []byte) []byte { s[16]++; return s }}, // κ
		{"truncated centroids", "routing centroids", func(s []byte) []byte { return s[:len(s)-4] }},
		{"centroid rows missing", "routing centroids", func(s []byte) []byte {
			// One centroid fewer, its bytes gone: a well-formed matrix of the wrong shape.
			at := centroidsAt(s)
			n, dim := binary.LittleEndian.Uint32(s[at:]), binary.LittleEndian.Uint32(s[at+4:])
			binary.LittleEndian.PutUint32(s[at:], n-1)
			return s[:len(s)-4*int(dim)]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := true
			dir := rewriteLog(t, records, func(op wal.Op, p []byte) []byte {
				if op.Segment == nil || !first {
					return p
				}
				first = false
				payload, err := wal.EncodeSegment(op.FirstID, op.Rows, tc.edit(bytes.Clone(op.Segment)))
				if err != nil {
					t.Fatal(err)
				}
				return payload
			})
			got := restart(t, orig, dir)
			sameRestart(t, got, want)
			if !strings.Contains(got.log, "first refusal") || !strings.Contains(got.log, tc.reason) {
				t.Fatalf("log does not name the refusal (%q): %s", tc.reason, got.log)
			}
		})
	}
}

// centroidsAt returns the offset of the routing-centroid matrix in an
// encoded segment: after the 52-byte header and the graph section.
func centroidsAt(s []byte) int { return 52 + 8 + int(binary.LittleEndian.Uint64(s[52:])) }

// BenchmarkRestart times a durable server's restart at serve-mixed's shape:
// RegisterFile on a fresh Server over a data directory whose log holds
// 2,752 rows inserted in 64-row requests — ten flushes of 256 rows and 192
// buffered — on a routed float32 index of 10,000 rows. load-ms is the
// LoadIndex of the registered file alone, replay-ms the rest. "adopt"
// replays the log as written; "build" replays it with its segment records
// stripped, so every flush is built again.
func BenchmarkRestart(b *testing.B) {
	idx, err := gkmeans.Build(context.Background(), dataset.SIFTLike(10000, 1),
		gkmeans.WithKappa(20), gkmeans.WithXi(50), gkmeans.WithTau(8), gkmeans.WithSeed(1),
		gkmeans.WithShards(4), gkmeans.WithRouting(16))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	orig, dataDir := filepath.Join(dir, "orig.gkx"), filepath.Join(dir, "state")
	if err := gkmeans.SaveIndex(orig, idx); err != nil {
		b.Fatal(err)
	}
	s := New(Config{Window: -1, DataDir: dataDir})
	if err := s.RegisterFile(replayName, orig); err != nil {
		b.Fatal(err)
	}
	extra := dataset.SIFTLike(2752, 2)
	for lo := 0; lo < extra.N; lo += 64 {
		rows := make([][]float32, 64)
		for i := range rows {
			rows[i] = extra.Row(lo + i)
		}
		mustInsert(b, s, replayName, rows)
	}
	s.BeginShutdown()
	records := logRecords(b, filepath.Join(dataDir, replayName+".wal"))
	for _, run := range []struct{ name, dataDir string }{
		{"adopt", dataDir},
		{"build", rewriteLog(b, records, stripSegments)},
	} {
		b.Run(run.name, func(b *testing.B) {
			// Each timed part starts from a collected heap, so neither pays
			// for the other's garbage.
			load := func() time.Duration {
				runtime.GC()
				start := time.Now()
				if _, err := gkmeans.LoadIndex(orig); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			load() // the first load of a process pays for its heap growing
			b.ResetTimer()
			var loads time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(Config{Window: -1, DataDir: run.dataDir})
				runtime.GC()
				b.StartTimer()
				if err := s.RegisterFile(replayName, orig); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if e, _ := s.reg.get(replayName); e.flushes.Load() != 10 || e.mem.Rows() != 192 {
					b.Fatalf("replay made %d flushes with %d rows buffered, want 10 and 192", e.flushes.Load(), e.mem.Rows())
				}
				s.BeginShutdown()
				loads += load()
				b.StartTimer()
			}
			perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(perOp(loads), "load-ms")
			b.ReportMetric(perOp(b.Elapsed()-loads), "replay-ms")
		})
	}
}
