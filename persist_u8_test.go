package gkmeans

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// smallU8Index builds a compact uint8 index from byte-valued synthetic
// data; opts compose on top of the fixed graph parameters.
func smallU8Index(t *testing.T, n int, opts ...Option) *Index {
	t.Helper()
	data := dataset.SIFTLike(n, 17) // quantized: every value is an exact byte
	u8, err := vec.U8FromMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildU8(context.Background(), u8,
		append([]Option{WithKappa(5), WithXi(15), WithTau(3), WithSeed(17)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// roundTrip loads a blob and asserts the reload re-serialises to exactly
// the same bytes — the byte-stability contract of the .gkx layout.
func roundTrip(t *testing.T, blob []byte) *Index {
	t.Helper()
	loaded, err := ReadIndexFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again.Bytes()) {
		t.Fatal("load/save round-trip changed bytes")
	}
	return loaded
}

// assertSearchEqual compares two indexes' results and work counters on a
// shared query set: a loaded index must answer exactly like the saved one.
// Counters are compared as deltas so an index that already served queries
// earlier in the test can still be diffed against a freshly loaded copy.
func assertSearchEqual(t *testing.T, want, got *Index, queries *Matrix) {
	t.Helper()
	wb, gb := want.SearchStats(), got.SearchStats()
	for qi := 0; qi < queries.N; qi++ {
		w := want.Search(queries.Row(qi), 5, 40)
		g := got.Search(queries.Row(qi), 5, 40)
		if len(w) != len(g) {
			t.Fatalf("query %d: %d vs %d results", qi, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("query %d result %d: %v vs %v", qi, i, w[i], g[i])
			}
		}
	}
	delta := func(after, before SearchStats) SearchStats {
		return SearchStats{
			Queries:            after.Queries - before.Queries,
			DistanceComps:      after.DistanceComps - before.DistanceComps,
			ExpandedCandidates: after.ExpandedCandidates - before.ExpandedCandidates,
			ShardsProbed:       after.ShardsProbed - before.ShardsProbed,
			RoutedQueries:      after.RoutedQueries - before.RoutedQueries,
		}
	}
	wd, gd := delta(want.SearchStats(), wb), delta(got.SearchStats(), gb)
	if wd != gd {
		t.Fatalf("search stats diverge: %+v vs %+v", wd, gd)
	}
}

// u8Queries derives a byte-valued query set from the same generator as the
// index data (disjoint seed).
func u8Queries(n int) *Matrix {
	return dataset.SIFTLike(n, 91)
}

// A monolithic uint8 index must write the uint8 flag and dtype word, load
// back as uint8, answer identically, and round-trip byte-stably.
func TestU8MonoRoundTrip(t *testing.T) {
	idx := smallU8Index(t, 80)
	blob := gkxBlob(t, idx)
	flags := binary.LittleEndian.Uint32(blob[gkxFlagsOff:])
	if flags&flagU8 == 0 {
		t.Fatalf("uint8 blob without the uint8 flag (flags %#x)", flags)
	}
	if dw := binary.LittleEndian.Uint32(blob[gkxDtypeOff:]); dw != dtypeWordU8 {
		t.Fatalf("dtype word %d, want %d", dw, dtypeWordU8)
	}
	loaded := roundTrip(t, blob)
	if loaded.DType() != DTypeUint8 {
		t.Fatalf("loaded dtype %s, want uint8", loaded.DType())
	}
	if loaded.DataU8() == nil || loaded.Data() != nil {
		t.Fatal("loaded uint8 index carries the wrong dataset kind")
	}
	if !loaded.DataU8().Widen().Equal(idx.DataU8().Widen()) {
		t.Fatal("loaded byte dataset differs")
	}
	assertSearchEqual(t, idx, loaded, u8Queries(10))
}

// Sharded and routed uint8 indexes: the routed one carries the routing
// trailer and loads back routable.
func TestU8ShardedAndRoutedRoundTrip(t *testing.T) {
	queries := u8Queries(10)
	t.Run("sharded", func(t *testing.T) {
		idx := smallU8Index(t, 120, WithShards(3))
		blob := gkxBlob(t, idx)
		flags := binary.LittleEndian.Uint32(blob[gkxFlagsOff:])
		if flags&(flagU8|flagSharded) != flagU8|flagSharded {
			t.Fatalf("flags %#x missing uint8|sharded", flags)
		}
		loaded := roundTrip(t, blob)
		if !loaded.Sharded() || loaded.Shards() != 3 || loaded.DType() != DTypeUint8 {
			t.Fatalf("loaded shape: sharded=%v shards=%d dtype=%s", loaded.Sharded(), loaded.Shards(), loaded.DType())
		}
		assertSearchEqual(t, idx, loaded, queries)
	})
	t.Run("routed", func(t *testing.T) {
		idx := smallU8Index(t, 120, WithShards(3), WithRouting(2))
		blob := gkxBlob(t, idx)
		flags := binary.LittleEndian.Uint32(blob[gkxFlagsOff:])
		if flags&(flagU8|flagSharded|flagRouting) != flagU8|flagSharded|flagRouting {
			t.Fatalf("flags %#x missing uint8|sharded|routing", flags)
		}
		loaded := roundTrip(t, blob)
		if !loaded.Routed() || loaded.DType() != DTypeUint8 {
			t.Fatalf("loaded routed=%v dtype=%s", loaded.Routed(), loaded.DType())
		}
		for qi := 0; qi < queries.N; qi++ {
			w := idx.SearchNProbe(queries.Row(qi), 5, 40, 2)
			g := loaded.SearchNProbe(queries.Row(qi), 5, 40, 2)
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("nprobe query %d result %d: %v vs %v", qi, i, w[i], g[i])
				}
			}
		}
	})
}

// A mutated uint8 index (append, delete, compact) persists its mutation
// metadata and loads back with ids, tombstones and dtype intact.
func TestU8MutatedRoundTrip(t *testing.T) {
	idx := smallU8Index(t, 80)
	extra := NewMatrix(6, idx.Dim())
	for i := range extra.Data {
		extra.Data[i] = float32(i % 200)
	}
	idx, err := idx.Append(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if idx, err = idx.Delete(2, 7, 81); err != nil {
		t.Fatal(err)
	}
	blob := gkxBlob(t, idx)
	flags := binary.LittleEndian.Uint32(blob[gkxFlagsOff:])
	if flags&flagTombs == 0 {
		t.Fatalf("mutated blob without the tombstone flag (flags %#x)", flags)
	}
	loaded := roundTrip(t, blob)
	if loaded.DType() != DTypeUint8 || loaded.Deleted() != 3 || loaded.IDBound() != idx.IDBound() {
		t.Fatalf("loaded dtype=%s deleted=%d idbound=%d", loaded.DType(), loaded.Deleted(), loaded.IDBound())
	}
	assertSearchEqual(t, idx, loaded, u8Queries(8))

	// Compaction produces an id-mapped segment; it must survive the trip too.
	if idx, err = idx.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	loaded = roundTrip(t, gkxBlob(t, idx))
	if loaded.DType() != DTypeUint8 || loaded.Deleted() != 0 {
		t.Fatalf("compacted load dtype=%s deleted=%d", loaded.DType(), loaded.Deleted())
	}
	assertSearchEqual(t, idx, loaded, u8Queries(8))
}

// Corrupt uint8 inputs — a lying dtype word, dtype/flag mismatches in either
// direction, and truncations in every section — must produce an error,
// never a panic or a byte dataset parsed as floats. The v5 cases corrupt the
// legacy fixture (and the v1–v4 ones, for the flag their readers reject),
// the v7 ones the writer's output.
func TestReadU8CorruptInputs(t *testing.T) {
	// v5 and v7 share the header's first 28 bytes: magic, version, flags,
	// entries, dtype word, segment count, id bound. v7's build options
	// follow; then the uint8 matrix (8-byte shape + N·Dim payload bytes).
	v5 := gkxFixture(t, "v5-u8-routed-mutated")
	v7, at := gkxLayout(t, smallU8Index(t, 80))
	routed, rat := gkxLayout(t, gkxState(t, "u8-routed-mutated"))
	float6 := gkxBlob(t, gkxState(t, "mono"))

	t.Run("truncations", func(t *testing.T) {
		mustRejectCuts(t, v5, 120, 4, gkxDtypeOff, gkxDtypeOff+2, gkxV6HdrEnd, gkxV6HdrEnd+8, len(v5)-1)
		mustRejectCuts(t, v7, 120, 4, gkxDtypeOff, gkxDtypeOff+2, gkxSegsOff, gkxOptsOff, gkxHdrEnd, gkxHdrEnd+8, at.table, at.graph[0], len(v7)-1)
		// Which segment holds a tombstone depends on the routed partition.
		tombs := slices.IndexFunc(rat.tombs, func(off int) bool { return off >= 0 })
		if tombs < 0 {
			t.Fatal("the mutated routed state has no tombstone section")
		}
		mustRejectCuts(t, routed, 120, rat.table, rat.ids[0], rat.tombs[tombs], rat.routing, rat.routing+4, rat.routing+12, len(routed)-1)
	})

	t.Run("dtype words", func(t *testing.T) {
		for _, w := range []uint32{0, 2, 99, 0xFFFFFFFF} {
			name := fmt.Sprintf("dtype word %d", w)
			mustRejectPatches(t, v5, []gkxPatch{{"v5 " + name, put32(gkxDtypeOff, w), "dtype word"}})
			mustRejectPatches(t, v7, []gkxPatch{{name, put32(gkxDtypeOff, w), "dtype word"}})
		}
		for _, w := range []uint32{2, 99, 0xFFFFFFFF} {
			mustRejectPatches(t, float6, []gkxPatch{{fmt.Sprintf("float32 blob, dtype word %d", w), put32(gkxDtypeOff, w), "bad dtype word"}})
		}
	})

	t.Run("flag mismatches", func(t *testing.T) {
		const mismatch = "dtype/flag mismatch"
		mustRejectPatches(t, v5, []gkxPatch{{"v5 without flagU8", clearFlags(flagU8), mismatch}})
		// Each float32 version with the uint8 flag forced on. The bodies are
		// valid for their version, so the flag check alone must reject them.
		for _, name := range []string{"v1-mono-clustered", "v2-sharded", "v3-mutated", "v4-routed"} {
			mustRejectPatches(t, gkxFixture(t, name), []gkxPatch{{name[:2] + " with flagU8", orFlags(flagU8), mismatch}})
		}
		// v7 carries the dtype word on every index, so it can disagree with
		// the flag in both directions on both dtypes.
		mustRejectPatches(t, v7, []gkxPatch{
			{"uint8 blob without flagU8", clearFlags(flagU8), mismatch},
			{"uint8 blob with the float32 word", put32(gkxDtypeOff, dtypeWordF32), mismatch},
		})
		mustRejectPatches(t, float6, []gkxPatch{
			{"float32 blob with flagU8", orFlags(flagU8), mismatch},
			{"float32 blob with the uint8 word", put32(gkxDtypeOff, dtypeWordU8), mismatch},
			// Flag and word agreeing on the wrong dtype: the float payload
			// is then four times the bytes the shape announces.
			{"float32 blob relabelled uint8", func(b []byte) {
				orFlags(flagU8)(b)
				put32(gkxDtypeOff, dtypeWordU8)(b)
			}, ""},
		})
	})

	t.Run("shape mutations", func(t *testing.T) {
		for name, c := range map[string]struct {
			blob   []byte
			matrix int
		}{"v5": {v5, gkxV6HdrEnd}, "v7": {v7, gkxHdrEnd}} {
			mustRejectPatches(t, c.blob, []gkxPatch{
				{name + " rows huge", put32(c.matrix, 0xFFFFFF00), ""},
				{name + " dim zero", put32(c.matrix+4, 0), ""},
				{name + " segment count zero", put32(gkxSegsOff, 0), "implausible segment count"},
				{name + " id bound below rows", put32(gkxIDBoundOff, 1), "below row count"},
			})
		}
	})
}

// SaveIndex/LoadIndex work for uint8 indexes end to end on disk.
func TestU8SaveLoadFile(t *testing.T) {
	idx := smallU8Index(t, 80)
	path := t.TempDir() + "/u8.gkx"
	if err := SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DType() != DTypeUint8 || loaded.N() != idx.N() {
		t.Fatalf("loaded dtype=%s n=%d", loaded.DType(), loaded.N())
	}
	assertSearchEqual(t, idx, loaded, u8Queries(6))
}
