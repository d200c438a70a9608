package gkmeans

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// gkxStates names one small index per state an Index can be in, as far as
// the container is concerned: the round-trip table, the legacy fixtures
// (persist_legacy_test.go) and the parser fuzz seeds all build from it.
var gkxStates = []string{"mono", "clustered", "sharded", "routed", "mutated",
	"compacted-mono", "u8-mono", "u8-routed-mutated"}

// gkxState builds the named state over dataset.SIFTLike(60, 3) with the fuzz
// seeds' graph parameters. Builds are deterministic, so two calls yield
// indexes that answer — and serialise — identically.
func gkxState(tb testing.TB, name string) *Index {
	tb.Helper()
	ctx := context.Background()
	build := func(u8 bool, opts ...Option) *Index {
		data := dataset.SIFTLike(60, 3)
		opts = append([]Option{WithKappa(4), WithXi(10), WithTau(2), WithSeed(5)}, opts...)
		var idx *Index
		var err error
		if u8 {
			var b *vec.U8Matrix
			if b, err = vec.U8FromMatrix(data); err == nil {
				idx, err = BuildU8(ctx, b, opts...)
			}
		} else {
			idx, err = Build(ctx, data, opts...)
		}
		if err != nil {
			tb.Fatal(err)
		}
		return idx
	}
	// mutate leaves an appended segment with a tombstone (id 61) next to a
	// compacted segment 0 with an id map and a generation.
	mutate := func(idx *Index) *Index {
		extra := NewMatrix(4, idx.Dim())
		for i := range extra.Data {
			extra.Data[i] = float32(i % 200)
		}
		idx, err := idx.Append(ctx, extra)
		if err == nil {
			idx, err = idx.Delete(1, 5, 61)
		}
		if err == nil {
			idx, err = idx.Compact(ctx, 0)
		}
		if err != nil {
			tb.Fatal(err)
		}
		return idx
	}
	switch name {
	case "mono":
		return build(false)
	case "clustered":
		return build(false, WithMaxIter(4), WithClusters(3))
	case "sharded":
		return build(false, WithShards(2))
	case "routed":
		return build(false, WithShards(2), WithRouting(2))
	case "mutated":
		return mutate(build(false))
	case "compacted-mono":
		// Compacting everything folds the index back into one segment whose
		// row i is id i — monolithic again, at a generation past 0.
		idx, err := build(false, WithShards(2)).Compact(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		return idx
	case "u8-mono":
		return build(true)
	case "u8-routed-mutated":
		return mutate(build(true, WithShards(2), WithRouting(2)))
	}
	tb.Fatalf("unknown index state %q", name)
	return nil
}

// gkxBlob serialises idx and asserts the writer produced the one layout.
func gkxBlob(tb testing.TB, idx *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if n != int64(buf.Len()) {
		tb.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != indexVersion {
		tb.Fatalf("index wrote format version %d, want %d", v, indexVersion)
	}
	return buf.Bytes()
}

// gkxOffsets locates the sections of a v7 blob (persist.go): the 52-byte
// header and the dataset come first; offsets of absent sections are -1.
type gkxOffsets struct {
	table    int   // segment table, 32 bytes per segment
	graph    []int // per segment: its graph section
	tombs    []int // per segment: its tombstone words
	ids      []int // per segment: its id map
	routing  int   // routing trailer
	clusters int   // clustering trailer
	end      int
}

const (
	gkxFlagsOff   = 8
	gkxDtypeOff   = 16
	gkxSegsOff    = 20
	gkxIDBoundOff = 24
	gkxOptsOff    = 28 // uint32 κ, ξ, τ, then int64 seed (+12) and the builder word (+20)
	gkxHdrEnd     = 52
	gkxV6HdrEnd   = gkxOptsOff // a v5 or v6 header ends where v7's options begin
)

// gkxLayout serialises idx and computes where each section of the blob
// starts from the index's in-memory state; the end offset doubles as a check
// of that arithmetic.
func gkxLayout(tb testing.TB, x *Index) ([]byte, gkxOffsets) {
	tb.Helper()
	elem := 4
	if x.DType() == DTypeUint8 {
		elem = 1
	}
	off := gkxHdrEnd + 8 + elem*x.N()*x.Dim()
	o := gkxOffsets{table: off, routing: -1, clusters: -1}
	off += 32 * len(x.segs)
	for s := range x.segs {
		sg := &x.segs[s]
		o.graph = append(o.graph, off)
		off += int(sg.graph.SectionSize())
		tombs, ids := -1, -1
		if sg.dead() > 0 {
			tombs = off
			off += 8 * ((sg.rows.N + 63) / 64)
		}
		if sg.ids != nil {
			ids = off
			off += 4 * sg.rows.N
		}
		o.tombs, o.ids = append(o.tombs, tombs), append(o.ids, ids)
	}
	if x.route != nil {
		o.routing = off
		off += 4
		for s := range x.segs {
			off += 8 + 4*x.route.Centroids(s).N*x.Dim()
		}
	}
	if c := x.clusters; c != nil {
		o.clusters = off
		off += 8 + 4*x.N() + 8 + 4*c.K*x.Dim()
	}
	o.end = off
	blob := gkxBlob(tb, x)
	if o.end != len(blob) {
		tb.Fatalf("layout arithmetic wrong: sections end at %d, file has %d bytes", o.end, len(blob))
	}
	return blob, o
}

// mustRejectGkx asserts ReadIndexFrom fails on b — with an error naming
// wantSub when that is non-empty — and never panics.
func mustRejectGkx(t *testing.T, name string, b []byte, wantSub string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: ReadIndexFrom panicked: %v", name, r)
		}
	}()
	_, err := ReadIndexFrom(bytes.NewReader(b))
	if err == nil {
		t.Fatalf("%s: corrupt input accepted", name)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

// mustRejectCuts asserts every strided strict prefix of whole, and each of
// the listed boundary prefixes, is rejected.
func mustRejectCuts(t *testing.T, whole []byte, strides int, boundaries ...int) {
	t.Helper()
	stride := max(len(whole)/strides, 1)
	for cut := 0; cut < len(whole); cut += stride {
		mustRejectGkx(t, fmt.Sprintf("cut at %d/%d", cut, len(whole)), whole[:cut], "")
	}
	for _, cut := range boundaries {
		if cut < 0 || cut >= len(whole) {
			t.Fatalf("boundary cut %d outside the %d-byte file", cut, len(whole))
		}
		mustRejectGkx(t, fmt.Sprintf("boundary cut at %d/%d", cut, len(whole)), whole[:cut], "")
	}
}

// gkxPatch is one targeted corruption of a blob.
type gkxPatch struct {
	name    string
	mutate  func(b []byte)
	wantSub string // "" = any error
}

func put32(off int, v uint32) func([]byte) {
	return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
}

func put64(off int, v uint64) func([]byte) {
	return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
}

func orFlags(bits uint32) func([]byte) {
	return func(b []byte) {
		binary.LittleEndian.PutUint32(b[gkxFlagsOff:], binary.LittleEndian.Uint32(b[gkxFlagsOff:])|bits)
	}
}

func clearFlags(bits uint32) func([]byte) {
	return func(b []byte) {
		binary.LittleEndian.PutUint32(b[gkxFlagsOff:], binary.LittleEndian.Uint32(b[gkxFlagsOff:])&^bits)
	}
}

// mustRejectPatches applies each patch to its own copy of whole and asserts
// the result is rejected.
func mustRejectPatches(t *testing.T, whole []byte, patches []gkxPatch) {
	t.Helper()
	if _, err := ReadIndexFrom(bytes.NewReader(whole)); err != nil {
		t.Fatalf("unpatched blob does not load: %v", err)
	}
	for _, p := range patches {
		b := bytes.Clone(whole)
		p.mutate(b)
		mustRejectGkx(t, p.name, b, p.wantSub)
	}
}

// smallClusteredIndex builds a compact index with a clustering section so
// corruption tests cover every section of the .gkx container.
func smallClusteredIndex(t *testing.T) *Index {
	t.Helper()
	data := dataset.GloVeLike(80, 31)
	idx, err := Build(context.Background(), data,
		WithKappa(5), WithXi(15), WithTau(3), WithSeed(32),
		WithMaxIter(5), WithClusters(4))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// A write failure partway through SaveIndex must leave the previous file
// untouched and no temporary behind — a truncated .gkx at the target path
// would make a later gkserved -index refuse to start.
func TestWriteFileAtomicPreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.gkx")
	const sentinel = "previous good index bytes"
	if err := os.WriteFile(path, []byte(sentinel), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		// Write some bytes first so a non-atomic implementation would have
		// already truncated the target.
		if _, err := w.Write(make([]byte, 1024)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("injected write failure not propagated: %v", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("target file gone after failed save: %v", err)
	}
	if string(got) != sentinel {
		t.Fatalf("target file clobbered by failed save: %q", got)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileAtomicNoFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.gkx")
	err := writeFileAtomic(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return errors.New("interrupted")
	})
	if err == nil {
		t.Fatal("injected failure not propagated")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("failed save left a file at the target path: %v", serr)
	}
	assertNoTempFiles(t, dir)
	// A directory that is not there fails before anything is written, and
	// LoadIndex reports the missing file.
	missing := filepath.Join(dir, "no-such-dir", "idx.gkx")
	if err := SaveIndex(missing, smallClusteredIndex(t)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SaveIndex into a missing directory: %v", err)
	}
	if _, err := LoadIndex(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadIndex of a missing file: %v", err)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
}

// SaveIndex over an existing (possibly corrupt) file must replace it whole:
// afterwards LoadIndex sees only the new, complete index, readable by
// others, and no temporary is left next to it.
func TestSaveIndexReplacesExistingFile(t *testing.T) {
	idx := smallClusteredIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.gkx")
	if err := os.WriteFile(path, []byte("garbage that is not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatalf("load after overwrite: %v", err)
	}
	if loaded.N() != idx.N() || loaded.Clusters() == nil {
		t.Fatal("overwritten index incomplete")
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("saved index mode %v (err %v), want 0644", st.Mode().Perm(), err)
	}
	assertNoTempFiles(t, dir)
}

// assertSameState compares everything the state accessors report.
func assertSameState(t *testing.T, want, got *Index) {
	t.Helper()
	type state struct {
		N, Dim, Shards, Deleted, Live int
		IDBound                       int32
		DType                         DType
		Sharded, Routed, Clustered    bool
		Infos                         []ShardInfo
	}
	of := func(x *Index) state {
		return state{x.N(), x.Dim(), x.Shards(), x.Deleted(), x.Live(), x.IDBound(), x.DType(),
			x.Sharded(), x.Routed(), x.Clusters() != nil, x.ShardInfos()}
	}
	if w, g := of(want), of(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("index state differs:\n want %+v\n got  %+v", w, g)
	}
}

// Every state an Index can reach is written in the one layout and comes back
// from it unchanged: the header says 7, save → load → save is byte-identical,
// and the loaded index reports the same state and answers the same — with
// the clustering, where there is one, intact.
func TestEveryStateRoundTripsThroughOneLayout(t *testing.T) {
	queries := dataset.SIFTLike(12, 91) // byte-valued: fit for the uint8 states too
	for _, name := range gkxStates {
		t.Run(name, func(t *testing.T) {
			idx := gkxState(t, name)
			loaded := roundTrip(t, gkxBlob(t, idx))
			assertSameState(t, idx, loaded)
			assertSearchEqual(t, idx, loaded, queries)
			switch name {
			case "clustered":
				w, g := idx.Clusters(), loaded.Clusters()
				if g.K != w.K || g.Iters != w.Iters || !reflect.DeepEqual(g.Labels, w.Labels) || !g.Centroids.Equal(w.Centroids) {
					t.Fatal("clustering changed in the round trip")
				}
				if g.Graph != loaded.Graph() {
					t.Fatal("loaded clustering does not share the loaded index's graph")
				}
			case "compacted-mono":
				if idx.Sharded() || idx.Graph() == nil || idx.segs[0].gen == 0 {
					t.Fatalf("state is not a compacted monolithic index: sharded=%v gen=%d", idx.Sharded(), idx.segs[0].gen)
				}
				if _, err := loaded.Cluster(context.Background(), 3, WithMaxIter(2)); err != nil {
					t.Fatalf("loaded compacted-mono index cannot cluster: %v", err)
				}
			}
		})
	}
}

// With more entry points than ef every segment seeds its queries from the
// grouped entry scan. The groups are derived state, rebuilt from the loaded
// rows and the persisted entry count, so the loaded index must answer — and
// count its work — exactly like the saved one (invariant 5).
func TestEntryGroupsSurviveSaveLoad(t *testing.T) {
	data := dataset.SIFTLike(700, 29)
	queries := dataset.SIFTLike(12, 92)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"mono", nil},
		{"routed", []Option{WithShards(2), WithRouting(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithKappa(6), WithXi(18), WithTau(3), WithSeed(29), WithEntryPoints(256)}, tc.opts...)
			idx, err := Build(context.Background(), data, opts...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "entries.gkx")
			if err := SaveIndex(path, idx); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			assertSearchEqual(t, idx, loaded, queries)
		})
	}
}

// failAfter is a writer that accepts budget bytes and then fails.
type failAfter struct{ budget int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errDiskFull
	}
	w.budget -= len(p)
	return len(p), nil
}

// A write error in any section surfaces from WriteTo, with the count of
// bytes that did go out.
func TestWriteToPropagatesWriteErrors(t *testing.T) {
	for _, name := range []string{"clustered", "u8-routed-mutated"} {
		idx := gkxState(t, name)
		blob, at := gkxLayout(t, idx)
		cuts := []int{0, 7, gkxHdrEnd, gkxHdrEnd + 9, at.table + 5, at.graph[0] + 3, at.graph[0] + 40, len(blob) - 1}
		for _, o := range [][]int{at.tombs, at.ids, {at.routing, at.clusters}} {
			for _, off := range o {
				if off >= 0 {
					cuts = append(cuts, off+1)
				}
			}
		}
		for _, budget := range cuts {
			n, err := idx.WriteTo(&failAfter{budget: budget})
			if !errors.Is(err, errDiskFull) || n != int64(budget) {
				t.Fatalf("%s, writer failing after %d bytes: WriteTo = %d, %v", name, budget, n, err)
			}
		}
	}
}

// Corrupt multi-segment containers — truncations (in the header, the
// segment table and the segments), a lying segment count and inconsistent
// table entries — must always produce an error: never a panic, never a
// misaligned read that "succeeds". The v2 cases corrupt the legacy fixture,
// the v7 ones the writer's output.
func TestReadShardedCorruptInputs(t *testing.T) {
	// v2 layout: 24-byte header, matrix (8-byte shape + payload), segment
	// table (16 bytes per shard), then the segments.
	v2 := gkxFixture(t, "v2-sharded")
	v2Table := 24 + 8 + 4*60*128
	v2Segments := v2Table + 16*2

	idx := gkxState(t, "sharded")
	v7, at := gkxLayout(t, idx)
	mutated, mat := gkxLayout(t, gkxState(t, "mutated"))

	t.Run("truncations", func(t *testing.T) {
		// Boundary cuts: mid-header, table start, mid-table (the "truncated
		// segment table" case), segments start, mid-segment.
		mustRejectCuts(t, v2, 120, 4, 16, 20, v2Table, v2Table+7, v2Table+16, v2Segments, v2Segments+3, len(v2)-1)
		mustRejectCuts(t, v7, 120, 4, 16, 20, gkxOptsOff, gkxOptsOff+13, gkxHdrEnd, at.table, at.table+7, at.table+32, at.graph[0], at.graph[0]+3, at.graph[1], len(v7)-1)
		// v3–v5 headers carry a segment count and an id bound past the first 16 bytes.
		mustRejectCuts(t, gkxFixture(t, "v3-mutated"), 60, 16, 20, 23, 24)
		// A mutated index adds tombstone words and an id map per segment.
		mustRejectCuts(t, mutated, 120, mat.ids[0], mat.ids[0]+5, mat.graph[1], mat.tombs[1], mat.tombs[1]+3, len(mutated)-1)
	})

	t.Run("mutations", func(t *testing.T) {
		mustRejectPatches(t, v2, []gkxPatch{
			{"v2 version 99", func(b []byte) { b[4] = 99 }, "newer release"},
			{"v2 sharded flag missing", put32(8, 0), "without the sharded flag"},
			{"v2 shard count zero", put32(16, 0), "implausible shard count"},
			{"v2 shard count one", put32(16, 1), "implausible shard count"},
			{"v2 shard count huge", put32(16, 0xFFFFFFFF), "implausible"},
			// The header says 3 shards but the table and segments hold 2:
			// the row sum no longer covers the dataset.
			{"v2 shard count mismatch", put32(16, 3), ""},
			{"v2 table rows inflated", put32(v2Table, 9999), "segment table covers"},
			{"v2 table rows zeroed", put32(v2Table, 0), "segment table covers"},
			// Rows that still sum to the dataset, but not as the graphs were built.
			{"v2 table rows shifted between shards", func(b []byte) {
				put32(v2Table, 29)(b)
				put32(v2Table+16, 31)(b)
			}, "graph has 30 nodes for 29 samples"},
			{"v2 table segment size wrong", put64(v2Table+8, 12), ""},
			{"v2 table segment size huge", put64(v2Table+8, 1<<50), "table says"},
			{"v2 segment graph magic", func(b []byte) { b[v2Segments+8] ^= 0xFF }, "bad magic"},
		})
		mustRejectPatches(t, v7, []gkxPatch{
			{"version 99", func(b []byte) { b[4] = 99 }, "newer release"},
			{"version 0", func(b []byte) { b[4] = 0 }, "unsupported index version 0"},
			{"sharded flag missing", clearFlags(flagSharded), "monolithic v7 index with 2 segments"},
			{"segment count zero", put32(gkxSegsOff, 0), "implausible segment count"},
			{"segment count past the cap", put32(gkxSegsOff, maxShardSegments+1), "implausible segment count"},
			{"segment count huge", put32(gkxSegsOff, 0xFFFFFFFF), "implausible segment count"},
			{"segment count mismatch", put32(gkxSegsOff, 3), ""},
			{"segment count one", put32(gkxSegsOff, 1), "segment table covers"},
			{"id bound below rows", put32(gkxIDBoundOff, 1), "below row count"},
			{"id bound past int32", put32(gkxIDBoundOff, 1<<31), "overflows int32"},
			{"table rows inflated", put32(at.table, 9999), "segment table covers"},
			{"table rows zeroed", put32(at.table, 0), "segment table covers"},
			{"table rows shifted between segments", func(b []byte) {
				put32(at.table, 29)(b)
				put32(at.table+32, 31)(b)
			}, "graph has 30 nodes for 29 samples"},
			{"table unknown segment flags", put32(at.table+4, 1<<5), "unknown flags"},
			{"table graph size wrong", put64(at.table+8, 12), ""},
			{"table graph size short by one", put64(at.table+8, uint64(idx.segs[0].graph.SectionSize()-1)), "reading segment 0"},
			{"table graph size long by one", put64(at.table+8, uint64(idx.segs[0].graph.SectionSize()+1)), "table says"},
			{"table graph size huge", put64(at.table+8, 1<<50), "table says"},
			{"table base past int32", put32(at.table+24, 1<<31), "overflows int32"},
			{"table base past the id bound", put32(at.table+32+24, 31), "exceed the id bound"},
			{"segment graph magic", func(b []byte) { b[at.graph[0]+8] ^= 0xFF }, "bad magic"},
			{"second segment graph node count", put32(at.graph[1]+12, 7), ""},
		})
		idBound := uint32(gkxState(t, "mutated").IDBound())
		mustRejectPatches(t, mutated, []gkxPatch{
			{"tombstone bit past the rows", func(b []byte) { b[mat.tombs[1]+7] |= 0x80 }, "beyond row"},
			{"tombstone flag on a segment without words", put32(mat.table+4, segFlagTombs|segFlagIDMap), ""},
			{"id map entry negative", put32(mat.ids[0], 0xFFFFFFFF), "outside [0,"},
			{"id map entry at the id bound", put32(mat.ids[0]+4, idBound), "outside [0,"},
			{"id map flag dropped", put32(mat.table+4, 0), ""},
			{"id bound below an id-map entry", put32(gkxIDBoundOff, 62), ""},
		})
	})

	// The monolithic promise (no sharded flag): one segment, at base 0,
	// without an id map.
	t.Run("monolithic", func(t *testing.T) {
		compacted, err := gkxState(t, "mono").Delete(3)
		if err == nil {
			compacted, err = compacted.Compact(context.Background())
		}
		if err != nil {
			t.Fatal(err)
		}
		withMap, _ := gkxLayout(t, compacted) // one segment carrying an id map
		mustRejectPatches(t, withMap, []gkxPatch{
			{"monolithic with an id map", clearFlags(flagSharded), "monolithic v7 index with an id map"},
		})
		mono, mo := gkxLayout(t, gkxState(t, "mono"))
		mustRejectPatches(t, mono, []gkxPatch{
			{"monolithic with a base", func(b []byte) {
				put32(gkxIDBoundOff, 61)(b)
				put32(mo.table+24, 1)(b)
			}, "monolithic v7 index with base 1"},
			{"base past the id bound", put32(mo.table+24, 1), "exceed the id bound"},
		})
	})
}

// Corrupt container inputs — truncations and targeted bit flips in every
// section — must always produce an error: never a panic, never a runaway
// allocation from an untrusted header. The v1 cases corrupt the legacy
// fixture, the v7 ones the writer's output.
func TestReadIndexFromCorruptInputs(t *testing.T) {
	// v1 layout: 16-byte header, matrix (8-byte shape + payload),
	// length-prefixed graph section, clustering.
	v1 := gkxFixture(t, "v1-mono-clustered")
	const v1Matrix = 16
	v1Graph := v1Matrix + 8 + 4*60*128
	v1Clusters := v1Graph + 8 + int(binary.LittleEndian.Uint64(v1[v1Graph:]))
	if v1Clusters >= len(v1) {
		t.Fatalf("layout arithmetic wrong: clustering offset %d, file %d bytes", v1Clusters, len(v1))
	}

	idx := smallClusteredIndex(t)
	v7, at := gkxLayout(t, idx)
	const v7Matrix = gkxHdrEnd

	// Every strict prefix must fail cleanly, whichever section the cut
	// lands in; exact section boundaries are the interesting edge cases.
	t.Run("truncations", func(t *testing.T) {
		mustRejectCuts(t, v1, 150, v1Matrix, v1Matrix+8, v1Graph, v1Graph+4, v1Graph+8, v1Clusters, v1Clusters+8, len(v1)-1)
		mustRejectCuts(t, v7, 150, 16, 20, gkxOptsOff, v7Matrix, v7Matrix+8, at.table, at.graph[0], at.graph[0]+8, at.clusters, at.clusters+8, at.clusters+8+4*idx.N(), len(v7)-1)
	})

	t.Run("bitflips", func(t *testing.T) {
		sectionCases := func(matrix, graph, clusters, n int) []gkxPatch {
			return []gkxPatch{
				{"magic", func(b []byte) { b[0] ^= 0xFF }, "bad index magic"},
				{"version", func(b []byte) { b[4] = 99 }, "unsupported index version 99"},
				{"matrix rows huge", put32(matrix, 0xFFFFFF00), ""}, // allocation-guard territory
				{"matrix dim zero", put32(matrix+4, 0), ""},
				{"graph section size huge", put64(graph, 1<<50), ""},
				{"graph section size short", put64(graph, 16), ""},
				{"graph magic", func(b []byte) { b[graph+8] ^= 0xFF }, "bad magic"},
				{"graph node count huge", put32(graph+12, 0xFFFFFF00), ""},
				{"graph node count off by one", put32(graph+12, uint32(n-1)), ""},
				{"graph kappa zero", put32(graph+16, 0), ""},
				{"first list length over kappa", put32(graph+20, 0xFFFF), ""},
				{"cluster count zero", put32(clusters, 0), "corrupt clustering section"},
				// First label of the clustering section (after k and iters).
				{"label out of range", put32(clusters+8, 0x7FFFFFFF), "corrupt clustering section"},
				{"centroid rows not k", put32(clusters+8+4*n, 2), ""},
				{"centroid dim zero", put32(clusters+8+4*n+4, 0), ""},
			}
		}
		mustRejectPatches(t, v1, sectionCases(v1Matrix, v1Graph, v1Clusters, 60))
		mustRejectPatches(t, v7, sectionCases(v7Matrix, at.graph[0], at.clusters, idx.N()))
		mustRejectGkx(t, "clustering flag without a trailer", v7[:at.clusters], "clustering header")
	})

	// Only a monolithic float32 index without tombstones can carry a
	// clustering: the flag on anything else is a corrupt header, not a
	// trailer to go looking for.
	t.Run("clustering flag", func(t *testing.T) {
		tombstoned, err := gkxState(t, "mono").Delete(3)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range map[string]*Index{
			"sharded":    gkxState(t, "sharded"),
			"routed":     gkxState(t, "routed"),
			"uint8":      gkxState(t, "u8-mono"),
			"tombstoned": tombstoned,
		} {
			mustRejectPatches(t, gkxBlob(t, x), []gkxPatch{
				{"clustering flag on a " + name + " index", orFlags(flagClusters), "clustering flag on"},
			})
		}
		// v3–v5 never defined bit 0: their readers ignored it, and so does
		// the translation.
		for _, name := range []string{"v3-mutated", "v4-routed", "v5-u8-routed-mutated"} {
			b := gkxFixture(t, name)
			orFlags(flagClusters)(b)
			if _, err := ReadIndexFrom(bytes.NewReader(b)); err != nil {
				t.Fatalf("%s with bit 0 set: %v", name, err)
			}
		}
	})
}

// The build options travel with the file: a loaded index holds the κ, ξ,
// τ, seed and builder it was saved with — a value no builder can read
// differently clamped as the writer stores it — and the unset builder stays
// apart from naming the default one.
func TestBuildOptionsSurviveSaveLoad(t *testing.T) {
	type opts struct {
		kappa, xi, tau int
		seed           int64
		builder        string
	}
	of := func(x *Index) opts { return opts{x.cfg.kappa, x.cfg.xi, x.cfg.tau, x.cfg.seed, x.cfg.builder} }
	for _, name := range gkxStates {
		idx := gkxState(t, name)
		if want, got := of(idx), of(roundTrip(t, gkxBlob(t, idx))); got != want {
			t.Fatalf("%s: loaded options %+v, saved %+v", name, got, want)
		}
	}
	mono := gkxState(t, "mono")
	for _, tc := range []struct {
		given []Option
		want  opts
	}{
		{[]Option{WithKappa(-3), WithXi(maxXi), WithSeed(-7), WithGraphBuilder(BuilderNNDescent)},
			opts{0, maxXi, 0, -7, BuilderNNDescent}},
		{[]Option{WithKappa(maxKappa), WithTau(maxTau)}, opts{maxKappa, 0, maxTau, 0, ""}},
		{[]Option{WithTau(5), WithSeed(math.MinInt64), WithGraphBuilder(BuilderGKMeans)},
			opts{0, 0, 5, math.MinInt64, BuilderGKMeans}},
	} {
		idx, err := NewIndex(mono.Data(), mono.Graph(), tc.given...)
		if err != nil {
			t.Fatal(err)
		}
		if got := of(roundTrip(t, gkxBlob(t, idx))); got != tc.want {
			t.Fatalf("loaded options %+v, want %+v", got, tc.want)
		}
	}
	// What the writer can be given, the reader accepts: Build and NewIndex
	// refuse what the reader would.
	for _, tc := range []struct {
		opt  Option
		want string
	}{
		{WithGraphBuilder("nosuch"), `unknown graph builder "nosuch"`},
		{WithKappa(maxKappa + 1), "build option kappa = 1025 exceeds its limit 1024"},
		{WithXi(maxXi + 1), "build option xi = 4097 exceeds its limit 4096"},
		{WithTau(maxTau + 1), "build option tau = 257 exceeds its limit 256"},
	} {
		if _, err := NewIndex(mono.Data(), mono.Graph(), tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NewIndex: got %v, want %q", err, tc.want)
		}
		if _, err := Build(context.Background(), mono.Data(), tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Build: got %v, want %q", err, tc.want)
		}
	}
	blob := gkxBlob(t, mono)
	mustRejectPatches(t, blob, []gkxPatch{
		{"kappa past int32", put32(gkxOptsOff, 1<<31), "build option kappa = 2147483648 overflows int32"},
		{"tau past int32", put32(gkxOptsOff+8, math.MaxUint32), "build option tau = 4294967295 overflows int32"},
		{"kappa past its limit", put32(gkxOptsOff, maxKappa+1), "build option kappa = 1025 exceeds its limit 1024"},
		{"xi past its limit", put32(gkxOptsOff+4, maxXi+1), "build option xi = 4097 exceeds its limit 4096"},
		// One flipped bit in τ = 8 would run 65544 rounds per flush.
		{"tau with a flipped bit", put32(gkxOptsOff+8, 8|1<<16), "build option tau = 65544 exceeds its limit 256"},
		{"unknown builder word", put32(gkxOptsOff+20, 3), "unknown graph builder word 3"},
	})
}

// A loaded index grows exactly as the index it was saved from would have:
// Append, then Compact, write the same .gkx bytes on both — monolithic,
// routed and routed uint8, built on one worker or two. The loaded index
// builds on GOMAXPROCS workers, so the test sets that to the same count.
func TestLoadedIndexBuildsAsSaved(t *testing.T) {
	ctx := context.Background()
	data, extra := dataset.SIFTLike(500, 17), dataset.SIFTLike(64, 18)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"monolithic", nil},
		{"routed", []Option{WithShards(2), WithRouting(4)}},
		{"routed-u8", []Option{WithDType(DTypeUint8), WithShards(2), WithRouting(4)}},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				opts := append([]Option{WithKappa(8), WithXi(20), WithTau(3), WithSeed(23), WithWorkers(workers)}, tc.opts...)
				built, err := Build(ctx, data, opts...)
				if err != nil {
					t.Fatal(err)
				}
				loaded := roundTrip(t, gkxBlob(t, built))
				var appended, compacted [2][]byte
				for i, x := range []*Index{built, loaded} {
					x, err := x.Append(ctx, extra)
					if err != nil {
						t.Fatal(err)
					}
					appended[i] = gkxBlob(t, x)
					if x, err = x.Delete(3, 501); err == nil {
						x, err = x.Compact(ctx)
					}
					if err != nil {
						t.Fatal(err)
					}
					compacted[i] = gkxBlob(t, x)
				}
				if !bytes.Equal(appended[0], appended[1]) {
					t.Fatal("Append on the loaded index writes other bytes than on the index it was saved from")
				}
				if !bytes.Equal(compacted[0], compacted[1]) {
					t.Fatal("Compact on the loaded index writes other bytes than on the index it was saved from")
				}
			})
		}
	}
}
