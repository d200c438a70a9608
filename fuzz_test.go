package gkmeans

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzReadIndexFrom hammers the .gkx container parser with mutated bytes.
// The contract under fuzzing is the same one TestReadIndexFromCorruptInputs
// checks pointwise: ReadIndexFrom either returns an error or an index whose
// accessors are safe to call and which re-serialises cleanly — it never
// panics and never allocates absurdly from a lying length field (which
// TestLyingLengthsAllocateBoundedly measures).
//
// CI runs this for a short budget: go test -fuzz=FuzzReadIndexFrom -fuzztime=20s .
func FuzzReadIndexFrom(f *testing.F) {
	// One v7 blob per state an Index can be in, then one golden file per
	// legacy layout (testdata/gkx, see persist_legacy_test.go); the committed
	// corpus under testdata/fuzz adds a v1 blob of its own.
	blobs := map[string][]byte{}
	for _, name := range gkxStates {
		blobs[name] = gkxBlob(f, gkxState(f, name))
		f.Add(blobs[name])
	}
	for _, fx := range legacyFixtures {
		blobs[fx.name] = gkxFixture(f, fx.name)
		f.Add(blobs[fx.name])
	}
	f.Add([]byte{})
	f.Add([]byte("GKXI"))
	corrupt := func(name string, mutate func(b []byte) []byte) {
		f.Add(mutate(bytes.Clone(blobs[name])))
	}
	// A valid prefix with a lying tail exercises the section-length checks.
	corrupt("mono", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("sharded", func(b []byte) []byte { b[gkxFlagsOff] ^= 0xff; return b })
	corrupt("sharded", func(b []byte) []byte { b[gkxSegsOff] ^= 0x03; return b })
	// Corrupt routing centroids: the trailer sits at the end of a routed
	// blob, so a late byte flip lands in the centroid data or its shape words.
	corrupt("routed", func(b []byte) []byte { b[len(b)-3] ^= 0xff; return b })
	corrupt("routed", func(b []byte) []byte { return b[:len(b)-7] }) // truncated routing trailer
	corrupt("clustered", func(b []byte) []byte { return b[:len(b)-7] })
	// A lying dtype word exercises the double-pinned dtype check (header flag
	// AND dtype word must agree), in v7, v6 and v5.
	corrupt("u8-mono", func(b []byte) []byte { b[gkxDtypeOff] ^= 0xff; return b })
	corrupt("v5-u8-routed-mutated", func(b []byte) []byte { b[gkxDtypeOff] ^= 0xff; return b })
	corrupt("v6-u8-routed-mutated", func(b []byte) []byte { b[gkxDtypeOff] ^= 0xff; return b })
	// Lying build options: κ past int32, τ past its limit by one flipped
	// bit, a builder word naming no builder.
	corrupt("routed", func(b []byte) []byte { b[gkxOptsOff+3] |= 0x80; return b })
	corrupt("routed", func(b []byte) []byte { b[gkxOptsOff+10] |= 0x01; return b })
	corrupt("mono", func(b []byte) []byte { b[gkxOptsOff+20] = 9; return b })
	// The uint8 flag forced onto float blobs exercises the inverse check.
	corrupt("mono", func(b []byte) []byte { b[gkxFlagsOff] |= byte(flagU8); return b })
	corrupt("v1-mono-clustered", func(b []byte) []byte { b[gkxFlagsOff] |= byte(flagU8); return b })

	f.Fuzz(func(t *testing.T, b []byte) {
		idx, err := ReadIndexFrom(bytes.NewReader(b))
		if err != nil {
			return
		}
		// Accepted inputs must round-trip through the writer.
		if idx.N() < 0 || idx.Dim() < 0 {
			t.Fatalf("accepted index reports negative shape %d×%d", idx.N(), idx.Dim())
		}
		var out bytes.Buffer
		if _, err := idx.WriteTo(&out); err != nil {
			t.Fatalf("accepted index fails to re-serialise: %v", err)
		}
	})
}

// A length field that lies upward — a matrix row count, a graph's node
// count, κ or a list length, a segment table's graph size, a graph
// section's own length prefix, each set to 2³⁰ —
// must cost no more memory than the bytes that did arrive: the readers
// grow what they decode with the stream and never allocate from a header.
// The bound is TotalAlloc ≤ 2× the blob + 1 MiB per read (the fixed part
// covers read buffers and the index's small headers), from a stream
// (ReadIndexFrom), from a stream capped far above its size (an
// io.LimitReader's N says nothing about the bytes present) and from a file
// (LoadIndex). Each lie but the graph's κ fails the read. That κ only caps
// the lists, and no list reaches it, so that file loads — as it always
// has — and re-saves to exactly its own bytes. The build options κ, ξ and
// τ, which size the builds a loaded index runs, are refused at 2³⁰.
func TestLyingLengthsAllocateBoundedly(t *testing.T) {
	const lie = 1 << 30
	path := filepath.Join(t.TempDir(), "lying.gkx")
	reads := map[string]func([]byte) (*Index, error){
		"stream":         func(b []byte) (*Index, error) { return ReadIndexFrom(bytes.NewReader(b)) },
		"limited stream": func(b []byte) (*Index, error) { return ReadIndexFrom(io.LimitReader(bytes.NewReader(b), 1<<40)) },
		"file":           func([]byte) (*Index, error) { return LoadIndex(path) },
	}
	for _, name := range []string{"mono", "u8-routed-mutated"} {
		blob, at := gkxLayout(t, gkxState(t, name))
		for _, tc := range []struct {
			field string
			patch func([]byte)
			loads bool
		}{
			{"matrix row count", put32(gkxHdrEnd, lie), false},
			{"graph node count", put32(at.graph[0]+8+4, lie), false},
			{"graph kappa", put32(at.graph[0]+8+8, lie), true},
			{"first list length", put32(at.graph[0]+8+12, lie), false},
			{"table graph size", put64(at.table+8, lie), false},
			{"graph section size", put64(at.graph[0], lie), false},
			{"build option kappa", put32(gkxOptsOff, lie), false},
			{"build option xi", put32(gkxOptsOff+4, lie), false},
			{"build option tau", put32(gkxOptsOff+8, lie), false},
		} {
			b := bytes.Clone(blob)
			tc.patch(b)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			limit := 2*uint64(len(b)) + 1<<20
			for via, read := range reads {
				// The least of three reads: a collection or a runtime
				// allocation landing inside one read is not the reader's.
				var alloc uint64
				for try := 0; try < 3; try++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					idx, err := read(b)
					runtime.ReadMemStats(&after)
					if d := after.TotalAlloc - before.TotalAlloc; try == 0 || d < alloc {
						alloc = d
					}
					switch {
					case !tc.loads && err == nil:
						t.Fatalf("%s from a %s: a lying %s was accepted", name, via, tc.field)
					case tc.loads && err != nil:
						t.Fatalf("%s from a %s: %s: %v", name, via, tc.field, err)
					case tc.loads && !bytes.Equal(gkxBlob(t, idx), b):
						t.Fatalf("%s from a %s: a file with a lying %s re-saves to other bytes", name, via, tc.field)
					}
				}
				t.Logf("%s from a %s, lying %s: %d bytes allocated for a %d-byte blob (limit %d)", name, via, tc.field, alloc, len(b), limit)
				if alloc > limit {
					t.Errorf("%s from a %s, lying %s: read allocated %d bytes, limit 2×%d + 1 MiB = %d", name, via, tc.field, alloc, len(b), limit)
				}
			}
		}
	}
}
