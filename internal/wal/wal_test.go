package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	n, err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte{}, p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("Replay reported %d records, delivered %d", n, len(got))
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, path := openTemp(t)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {0, 1, 2, 3, 255}}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != len(payloads) {
		t.Fatalf("Records = %d, want %d", l.Records(), len(payloads))
	}
	got := replayAll(t, l)
	if len(got) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d: %q, want %q", i, got[i], payloads[i])
		}
	}

	// Appends after a replay must land after the existing records.
	if err := l.Append([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 4 || !bytes.Equal(got[3], []byte("gamma")) {
		t.Fatalf("after post-replay append: %q", got)
	}

	// Reopening reads the same records.
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 4 {
		t.Fatalf("reopened Records = %d, want 4", l2.Records())
	}
}

func TestAppendRejectsBadPayloads(t *testing.T) {
	l, _ := openTemp(t)
	if err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) did not error")
	}
	if err := l.Append([]byte{}); err == nil {
		t.Fatal("Append(empty) did not error")
	}
}

// A torn tail — the crash artefact — must be truncated away on Open, with
// every fully written record preserved.
func TestOpenTruncatesTornTail(t *testing.T) {
	l, path := openTemp(t)
	if err := l.Append([]byte("kept-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("kept-2")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: frame written, payload cut short.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 8)
	binary.LittleEndian.PutUint32(torn[0:4], 100)
	binary.LittleEndian.PutUint32(torn[4:8], 12345)
	raw = append(raw, torn...)
	raw = append(raw, []byte("only-part")...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 2 {
		t.Fatalf("Records after torn tail = %d, want 2", l2.Records())
	}
	got := replayAll(t, l2)
	if len(got) != 2 || !bytes.Equal(got[1], []byte("kept-2")) {
		t.Fatalf("replay after torn tail: %q", got)
	}
	// The file itself was trimmed: appending works and survives reopen.
	if err := l2.Append([]byte("kept-3")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Records() != 3 {
		t.Fatalf("Records after repair+append = %d, want 3", l3.Records())
	}
}

// A CRC-corrupted record mid-log cuts replay at the corruption: records
// before it survive, nothing at or after it is delivered.
func TestOpenCutsAtCorruptRecord(t *testing.T) {
	l, path := openTemp(t)
	for _, p := range []string{"first", "second", "third"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record (header 8 + rec1 frame 8+5,
	// into rec2's payload after its 8-byte frame).
	raw[8+13+8+2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 1 {
		t.Fatalf("Records after mid-log corruption = %d, want 1", l2.Records())
	}
	got := replayAll(t, l2)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("first")) {
		t.Fatalf("replay after corruption: %q", got)
	}
}

func TestOpenRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("GKIX this is an index, not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(path); err == nil {
		l.Close()
		t.Fatal("Open accepted a non-WAL file")
	}
	raw, _ := os.ReadFile(path)
	if !bytes.HasPrefix(raw, []byte("GKIX")) {
		t.Fatal("refused Open clobbered the foreign file")
	}
}

func TestOpsRoundTrip(t *testing.T) {
	ins, err := EncodeInsert(7, 3, []float32{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Decode(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !op.Insert || op.FirstID != 7 || op.Dim != 3 || op.Count() != 2 || op.Vectors[5] != 6 {
		t.Fatalf("decoded insert: %+v", op)
	}
	del, err := EncodeDelete([]int32{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	op, err = Decode(del)
	if err != nil {
		t.Fatal(err)
	}
	if op.Insert || len(op.IDs) != 2 || op.IDs[1] != 9 {
		t.Fatalf("decoded delete: %+v", op)
	}

	if _, err := EncodeInsert(-1, 3, []float32{1, 2, 3}); err == nil {
		t.Fatal("EncodeInsert with a negative id did not error")
	}
	if _, err := EncodeInsert(0, 4, []float32{1, 2, 3}); err == nil {
		t.Fatal("EncodeInsert with a ragged row did not error")
	}
	if _, err := EncodeDelete(nil); err == nil {
		t.Fatal("EncodeDelete of nothing did not error")
	}
	if _, err := EncodeDelete([]int32{-2}); err == nil {
		t.Fatal("EncodeDelete of a negative id did not error")
	}
	if _, err := Decode([]byte{99, 0, 0}); err == nil {
		t.Fatal("Decode of an unknown op kind did not error")
	}
	if _, err := Decode(ins[:len(ins)-1]); err == nil {
		t.Fatal("Decode of a truncated insert did not error")
	}

	seg, err := EncodeSegment(11, 5, []byte{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	op, err = Decode(seg)
	if err != nil {
		t.Fatal(err)
	}
	if op.Insert || op.IDs != nil || op.FirstID != 11 || op.Rows != 5 || !bytes.Equal(op.Segment, []byte{9, 8, 7}) {
		t.Fatalf("decoded segment: %+v", op)
	}
	for _, bad := range []struct {
		first int32
		count int
		state []byte
	}{{-1, 5, []byte{1}}, {0, 0, []byte{1}}, {0, 5, nil}, {1<<31 - 2, 5, []byte{1}}} {
		if _, err := EncodeSegment(bad.first, bad.count, bad.state); err == nil {
			t.Fatalf("EncodeSegment(%d, %d, %d bytes) did not error", bad.first, bad.count, len(bad.state))
		}
	}
	for _, p := range [][]byte{seg[:9], seg[:5], {opSegment, 0, 0, 0, 0, 0, 0, 0, 0, 1}, {opSegment, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 1}} {
		if _, err := Decode(p); err == nil {
			t.Fatalf("Decode of the bad segment op %v did not error", p)
		}
	}
}

// A record appended without its own fsync replays like any other, and the
// next synced append covers it.
func TestAppendUnsyncedReplays(t *testing.T) {
	l, path := openTemp(t)
	if err := l.Append([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendUnsynced([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendUnsynced(nil); err == nil {
		t.Fatal("AppendUnsynced(nil) did not error")
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 3 || string(got[1]) != "unsynced" {
		t.Fatalf("replayed %q", got)
	}
}

// FuzzWALReplay: whatever bytes land on disk, Open must never deliver a
// partial or corrupt record — every replayed payload must match its CRC
// frame exactly, the delivered prefix must be a valid re-encoding of
// itself, and Open must repair the file so a reopen agrees with the first
// read.
func FuzzWALReplay(f *testing.F) {
	header := func() []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], magic)
		binary.LittleEndian.PutUint32(hdr[4:8], version)
		return hdr[:]
	}
	frame := func(payload []byte) []byte {
		rec := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
		copy(rec[8:], payload)
		return rec
	}
	ins, _ := EncodeInsert(0, 2, []float32{1, 2, 3, 4})
	del, _ := EncodeDelete([]int32{1})
	valid := append(append(header(), frame(ins)...), frame(del)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])            // torn tail
	f.Add(append(valid, 0xde, 0xad, 0xbe)) // trailing garbage
	corrupt := append([]byte{}, valid...)
	corrupt[len(header())+8+2] ^= 0x40 // CRC mismatch in record 1
	f.Add(corrupt)
	f.Add(header())
	f.Add([]byte("GKWL"))
	f.Add([]byte{})
	// Segment records: a valid one after the insert whose rows it covers,
	// the same log torn inside it, and CRC-valid records whose header is
	// inconsistent (no rows, ids past int32, no state).
	seg, _ := EncodeSegment(0, 2, []byte("built state"))
	withSeg := append(append(append(header(), frame(ins)...), frame(seg)...), frame(del)...)
	f.Add(withSeg)
	f.Add(withSeg[:len(header())+len(frame(ins))+8+12])
	for _, bad := range [][]byte{
		{opSegment, 0, 0, 0, 0, 0, 0, 0, 0, 's'},
		{opSegment, 0xff, 0xff, 0xff, 0x7f, 2, 0, 0, 0, 's'},
		{opSegment, 0, 0, 0, 0, 2, 0, 0, 0},
	} {
		f.Add(append(append(header(), frame(ins)...), frame(bad)...))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			// Refused entirely (bad header): the file must be untouched.
			now, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(now, raw) {
				t.Fatalf("failed Open modified the file")
			}
			return
		}
		var replayed [][]byte
		n, err := l.Replay(func(p []byte) error {
			replayed = append(replayed, append([]byte{}, p...))
			return nil
		})
		if err != nil {
			t.Fatalf("Replay errored after Open repaired the log: %v", err)
		}
		if n != l.Records() {
			t.Fatalf("Replay delivered %d records, Records says %d", n, l.Records())
		}
		// Every delivered record must be byte-identical to a CRC-valid
		// frame in the original input, in order: no partial replays.
		off := len(header())
		for i, p := range replayed {
			if off+8+len(p) > len(raw) {
				t.Fatalf("record %d extends past the original input", i)
			}
			length := binary.LittleEndian.Uint32(raw[off : off+4])
			sum := binary.LittleEndian.Uint32(raw[off+4 : off+8])
			if int(length) != len(p) {
				t.Fatalf("record %d length %d, frame says %d", i, len(p), length)
			}
			if crc32.ChecksumIEEE(p) != sum {
				t.Fatalf("record %d does not match its CRC", i)
			}
			if !bytes.Equal(raw[off+8:off+8+len(p)], p) {
				t.Fatalf("record %d payload differs from the file bytes", i)
			}
			// A segment op that decodes is exactly its encoding.
			if op, err := Decode(p); err == nil && op.Segment != nil {
				if again, err := EncodeSegment(op.FirstID, op.Rows, op.Segment); err != nil || !bytes.Equal(again, p) {
					t.Fatalf("record %d: decoded segment op does not re-encode to its payload (%v)", i, err)
				}
			}
			off += 8 + len(p)
		}
		l.Close()

		// Open repaired the file: a second Open replays identically.
		l2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after repair failed: %v", err)
		}
		defer l2.Close()
		if l2.Records() != n {
			t.Fatalf("reopen sees %d records, first open saw %d", l2.Records(), n)
		}
	})
}
