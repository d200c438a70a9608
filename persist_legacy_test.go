package gkmeans

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gkmeans/internal/dataset"
)

// The golden files under testdata/gkx hold one index per legacy layout. No
// code in this repository can write them any more: they were produced by the
// writer of the last commit that chose among five layouts (dec0d17, "PR 23"),
// from a clone of it, with this program (gkxState in persist_test.go rebuilds
// the same five indexes in-process; the two routed ones no longer come out
// the same, because a routed build now partitions with the 2M tree instead
// of k-means++ Lloyd):
//
//	ctx := context.Background()
//	base := []gkmeans.Option{gkmeans.WithKappa(4), gkmeans.WithXi(10), gkmeans.WithTau(2), gkmeans.WithSeed(5)}
//	build := func(u8 bool, opts ...gkmeans.Option) *gkmeans.Index {
//		data := dataset.SIFTLike(60, 3)
//		opts = append(append([]gkmeans.Option(nil), base...), opts...)
//		if u8 {
//			b, _ := vec.U8FromMatrix(data)
//			idx, _ := gkmeans.BuildU8(ctx, b, opts...)
//			return idx
//		}
//		idx, _ := gkmeans.Build(ctx, data, opts...)
//		return idx
//	}
//	mutate := func(idx *gkmeans.Index) *gkmeans.Index {
//		extra := gkmeans.NewMatrix(4, idx.Dim())
//		for i := range extra.Data {
//			extra.Data[i] = float32(i % 200)
//		}
//		idx, _ = idx.Append(ctx, extra)
//		idx, _ = idx.Delete(1, 5, 61)
//		idx, _ = idx.Compact(ctx, 0)
//		return idx
//	}
//	for name, idx := range map[string]*gkmeans.Index{
//		"v1-mono-clustered":    build(false, gkmeans.WithMaxIter(4), gkmeans.WithClusters(3)),
//		"v2-sharded":           build(false, gkmeans.WithShards(2)),
//		"v3-mutated":           mutate(build(false)),
//		"v4-routed":            build(false, gkmeans.WithShards(2), gkmeans.WithRouting(2)),
//		"v5-u8-routed-mutated": mutate(build(true, gkmeans.WithShards(2), gkmeans.WithRouting(2))),
//	} {
//		gkmeans.SaveIndex(filepath.Join(dir, name+".gkx"), idx)
//	}
//
// (errors checked with log.Fatal in the original).
//
// v6-u8-routed-mutated is gkxState("u8-routed-mutated") as saved by the
// last writer of layout 6 (commit 04b3adb): the richest state — bytes,
// routing, an id map, tombstones, generations — in the last layout
// without build options. Its routed partition is today's, so it is
// compared with its rebuilt state like the unrouted fixtures.
//
// An unrouted fixture must answer and re-save exactly like its rebuilt
// state. A routed fixture is pinned to its own stored partition instead:
// segs lists, per segment, the external id of every row and the ids
// tombstoned there.
var legacyFixtures = []struct {
	name    string
	version uint32
	state   string // the gkxState built by the same operations; unrouted, or v6

	n, shards, deleted, clusters int
	idBound                      int32
	dtype                        DType
	sharded, routed              bool
	segs                         []legacySeg // routed only
}{
	{"v1-mono-clustered", indexVersionSingle, "clustered", 60, 1, 0, 3, 60, DTypeFloat32, false, false, nil},
	{"v2-sharded", indexVersionSharded, "sharded", 60, 2, 0, 0, 60, DTypeFloat32, true, false, nil},
	{"v3-mutated", indexVersionMutable, "mutated", 62, 2, 1, 0, 64, DTypeFloat32, true, false, nil},
	{"v4-routed", indexVersionRouted, "", 60, 2, 0, 0, 60, DTypeFloat32, true, true, []legacySeg{
		{ids: []int32{0, 3, 4, 5, 6, 12, 13, 14, 15, 17, 21, 22, 23, 24, 25, 26, 29, 33, 35, 37, 38, 39, 44, 45, 46, 48, 49, 50, 52, 53, 55, 57, 59}},
		{ids: []int32{1, 2, 7, 8, 9, 10, 11, 16, 18, 19, 20, 27, 28, 30, 31, 32, 34, 36, 40, 41, 42, 43, 47, 51, 54, 56, 58}},
	}},
	{"v5-u8-routed-mutated", indexVersionU8, "", 63, 3, 2, 0, 64, DTypeUint8, true, true, []legacySeg{
		{ids: []int32{0, 3, 4, 6, 12, 13, 14, 15, 17, 21, 22, 23, 24, 25, 26, 29, 33, 35, 37, 38, 39, 44, 45, 46, 48, 49, 50, 52, 53, 55, 57, 59}},
		{ids: []int32{1, 2, 7, 8, 9, 10, 11, 16, 18, 19, 20, 27, 28, 30, 31, 32, 34, 36, 40, 41, 42, 43, 47, 51, 54, 56, 58}, dead: []int32{1}},
		{ids: []int32{60, 61, 62, 63}, dead: []int32{61}},
	}},
	{"v6-u8-routed-mutated", indexVersionNoOpts, "u8-routed-mutated", 62, 3, 1, 0, 64, DTypeUint8, true, true, nil},
}

// legacySeg is one stored segment of a routed fixture: the external id of
// each row, in row order, and the tombstoned ids among them.
type legacySeg struct {
	ids, dead []int32
}

// assertStoredPartition checks x's segments against segs: the external id
// of every row, the tombstones, and that every row holds the vector its id
// names — row id of dataset.SIFTLike(60, 3) for a built row, the fixture
// program's appended pattern for ids 60 and up.
func assertStoredPartition(t *testing.T, x *Index, segs []legacySeg) {
	t.Helper()
	if len(x.segs) != len(segs) {
		t.Fatalf("%d segments, want %d", len(x.segs), len(segs))
	}
	data := dataset.SIFTLike(60, 3)
	for s, want := range segs {
		sg := &x.segs[s]
		rows := sg.rows.Widen()
		if rows.N != len(want.ids) {
			t.Fatalf("segment %d holds %d rows, want %d", s, rows.N, len(want.ids))
		}
		var dead []int32
		for l, id := range want.ids {
			if got := sg.id(l); got != id {
				t.Fatalf("segment %d row %d has id %d, want %d", s, l, got, id)
			}
			if sg.tomb != nil && sg.tomb.Get(l) {
				dead = append(dead, id)
			}
			for j, v := range rows.Row(l) {
				w := float32((int(id-60)*rows.Dim + j) % 200)
				if id < 60 {
					w = data.Row(int(id))[j]
				}
				if v != w {
					t.Fatalf("segment %d row %d (id %d) holds %v at dim %d, want %v", s, l, id, v, j, w)
				}
			}
		}
		if !reflect.DeepEqual(dead, want.dead) {
			t.Fatalf("segment %d tombstones %v, want %v", s, dead, want.dead)
		}
	}
}

// gkxFixture returns a private copy of one golden file's bytes.
func gkxFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "gkx", name+".gkx"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Files written by every earlier release keep loading: each fixture comes
// back in the state it was saved in and is rewritten as v7, which loads,
// answers and re-saves byte for byte the same again. An unrouted fixture
// (and the v6 one) also answers exactly like the same index rebuilt from
// the same seed and operations, and re-saves as the very bytes that index
// writes once its build options are dropped — no legacy layout stores
// them, so a legacy index builds with the defaults; a routed one holds the
// partition it was saved with. Deleting a fixture fails the test: versions
// 1–6 must all be here.
func TestLegacyFixtures(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "gkx"))
	if err != nil {
		t.Fatal(err)
	}
	var have, want []string
	for _, e := range entries {
		have = append(have, e.Name())
	}
	for _, f := range legacyFixtures {
		want = append(want, f.name+".gkx")
	}
	sort.Strings(have)
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("testdata/gkx holds %v, want exactly %v", have, want)
	}

	queries := dataset.SIFTLike(12, 91) // byte-valued: fit for the uint8 fixture too
	for i, f := range legacyFixtures {
		t.Run(f.name, func(t *testing.T) {
			blob := gkxFixture(t, f.name)
			if v := binary.LittleEndian.Uint32(blob[4:]); v != f.version || v != uint32(i+1) {
				t.Fatalf("fixture is version %d, want %d", v, f.version)
			}
			loaded, err := ReadIndexFrom(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			clusters := 0
			if c := loaded.Clusters(); c != nil {
				clusters = c.K
			}
			if loaded.N() != f.n || loaded.Dim() != 128 || loaded.Shards() != f.shards || loaded.Deleted() != f.deleted ||
				clusters != f.clusters || loaded.IDBound() != f.idBound || loaded.DType() != f.dtype ||
				loaded.Sharded() != f.sharded || loaded.Routed() != f.routed {
				t.Fatalf("loaded N=%d Dim=%d Shards=%d Deleted=%d Clusters=%d IDBound=%d DType=%s Sharded=%v Routed=%v, want %+v",
					loaded.N(), loaded.Dim(), loaded.Shards(), loaded.Deleted(), clusters, loaded.IDBound(), loaded.DType(),
					loaded.Sharded(), loaded.Routed(), f)
			}

			if c := loaded.cfg; c.kappa != 0 || c.xi != 0 || c.tau != 0 || c.seed != 0 || c.builder != "" {
				t.Fatalf("a legacy file loaded build options κ%d ξ%d τ%d seed %d builder %q", c.kappa, c.xi, c.tau, c.seed, c.builder)
			}
			resaved := gkxBlob(t, loaded) // asserts version 7
			if f.segs != nil {
				assertStoredPartition(t, loaded, f.segs)
			} else {
				rebuilt := gkxState(t, f.state)
				assertSameState(t, rebuilt, loaded)
				assertSearchEqual(t, rebuilt, loaded, queries)
				if !bytes.Equal(resaved, gkxBlob(t, withoutBuildOptions(rebuilt))) {
					t.Fatal("the fixture re-saves to different bytes than the rebuilt index writes")
				}
			}

			again := roundTrip(t, resaved)
			assertSameState(t, loaded, again)
			assertSearchEqual(t, loaded, again, queries)
			if f.routed {
				for qi := 0; qi < queries.N; qi++ {
					assertSameNeighbors(t, "nprobe 1", loaded.SearchNProbe(queries.Row(qi), 5, 40, 1),
						again.SearchNProbe(queries.Row(qi), 5, 40, 1))
				}
			}
			if !bytes.Equal(gkxBlob(t, again), resaved) {
				t.Fatal("load → save as v7 → load → save is not byte-exact")
			}
			if c := loaded.Clusters(); c != nil {
				w, g := c, again.Clusters()
				if g == nil || g.K != w.K || g.Iters != w.Iters || !reflect.DeepEqual(g.Labels, w.Labels) || !g.Centroids.Equal(w.Centroids) {
					t.Fatal("the v1 clustering did not survive load → save as v7 → load")
				}
			}
		})
	}
}

// withoutBuildOptions returns x as a layout without build options (v1–v6)
// holds it: the same index, building new shards with the defaults.
func withoutBuildOptions(x *Index) *Index {
	y := *x
	y.cfg = config{entries: x.cfg.entries, dtype: x.cfg.dtype, routing: x.cfg.routing}
	return &y
}
