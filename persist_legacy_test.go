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
// the same five indexes in-process):
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
var legacyFixtures = []struct {
	name    string
	version uint32
	state   string // the gkxState built by the same operations

	n, shards, deleted, clusters int
	idBound                      int32
	dtype                        DType
	sharded, routed              bool
}{
	{"v1-mono-clustered", indexVersionSingle, "clustered", 60, 1, 0, 3, 60, DTypeFloat32, false, false},
	{"v2-sharded", indexVersionSharded, "sharded", 60, 2, 0, 0, 60, DTypeFloat32, true, false},
	{"v3-mutated", indexVersionMutable, "mutated", 62, 2, 1, 0, 64, DTypeFloat32, true, false},
	{"v4-routed", indexVersionRouted, "routed", 60, 2, 0, 0, 60, DTypeFloat32, true, true},
	{"v5-u8-routed-mutated", indexVersionU8, "u8-routed-mutated", 63, 3, 2, 0, 64, DTypeUint8, true, true},
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
// back in the state it was saved in, answers exactly like the same index
// rebuilt from the same seed and operations, and is rewritten as v6 — the
// very bytes the rebuilt index writes — which loads and answers the same
// again. Deleting a fixture fails the test: versions 1–5 must all be here.
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

			rebuilt := gkxState(t, f.state)
			assertSameState(t, rebuilt, loaded)
			assertSearchEqual(t, rebuilt, loaded, queries)
			if f.routed {
				for qi := 0; qi < queries.N; qi++ {
					assertSameNeighbors(t, "nprobe 1", rebuilt.SearchNProbe(queries.Row(qi), 5, 40, 1),
						loaded.SearchNProbe(queries.Row(qi), 5, 40, 1))
				}
			}

			resaved := gkxBlob(t, loaded) // asserts version 6
			if !bytes.Equal(resaved, gkxBlob(t, rebuilt)) {
				t.Fatal("the fixture re-saves to different bytes than the rebuilt index writes")
			}
			again := roundTrip(t, resaved)
			assertSameState(t, loaded, again)
			assertSearchEqual(t, loaded, again, queries)
			if c := loaded.Clusters(); c != nil {
				w, g := rebuilt.Clusters(), again.Clusters()
				if g == nil || g.K != w.K || g.Iters != w.Iters || !reflect.DeepEqual(g.Labels, w.Labels) || !g.Centroids.Equal(w.Centroids) {
					t.Fatal("the v1 clustering did not survive load → save as v6 → load")
				}
			}
		})
	}
}
