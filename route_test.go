package gkmeans

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"gkmeans/internal/anns"
	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// buildRoutedIndex constructs a small deterministic routed index plus the
// original (un-reordered) data and a held-out query set.
func buildRoutedIndex(t *testing.T, opts ...Option) (*Index, *Matrix, *Matrix) {
	t.Helper()
	all := dataset.SIFTLike(1040, 31)
	data, queries := Split(all, 40)
	opts = append([]Option{
		WithShards(4), WithRouting(4),
		WithKappa(10), WithXi(25), WithTau(4), WithSeed(33),
	}, opts...)
	idx, err := Build(context.Background(), data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx, data, queries
}

func TestRoutedBuildPreservesExternalIDs(t *testing.T) {
	idx, data, queries := buildRoutedIndex(t)
	if !idx.Routed() || idx.RoutingCentroids() != 4 || idx.Shards() != 4 {
		t.Fatalf("routed=%v centroids=%d shards=%d, want true/4/4",
			idx.Routed(), idx.RoutingCentroids(), idx.Shards())
	}
	// The routed build reorders rows internally but result ids must keep
	// naming the caller's rows: every data row finds itself at distance 0.
	for _, i := range []int{0, 7, 313, 999} {
		res := idx.Search(data.Row(i), 1, 32)
		if len(res) != 1 || res[0].ID != int32(i) || res[0].Dist != 0 {
			t.Fatalf("self query %d returned %v", i, res)
		}
	}
	// Reported distances are against the original rows, even under routing.
	for qi := 0; qi < 5; qi++ {
		q := queries.Row(qi)
		for _, nb := range idx.SearchNProbe(q, 5, 64, 2) {
			if want := vec.L2Sqr(q, data.Row(int(nb.ID))); nb.Dist != want {
				t.Fatalf("query %d id %d dist %v, want %v", qi, nb.ID, nb.Dist, want)
			}
		}
	}
}

func TestRoutedFullFanOutBitIdentical(t *testing.T) {
	// nprobe >= shardCount must return exactly the full fan-out results AND
	// do exactly the full fan-out work (the router is never consulted) — at
	// any worker count.
	for _, workers := range []int{1, 3} {
		idx, _, queries := buildRoutedIndex(t, WithWorkers(workers))
		ref, _, _ := buildRoutedIndex(t, WithWorkers(workers))
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			a := idx.SearchNProbe(q, 10, 64, idx.Shards())
			b := ref.Search(q, 10, 64)
			if len(a) != len(b) {
				t.Fatalf("workers=%d query %d: %d vs %d results", workers, qi, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("workers=%d query %d result %d: %v vs %v", workers, qi, j, a[j], b[j])
				}
			}
		}
		sa, sb := idx.SearchStats(), ref.SearchStats()
		if sa != sb {
			t.Fatalf("workers=%d stats differ at full fan-out:\n%+v\n%+v", workers, sa, sb)
		}
		if sa.RoutedQueries != 0 {
			t.Fatalf("full fan-out recorded %d routed queries", sa.RoutedQueries)
		}
		if want := uint64(queries.N * idx.Shards()); sa.ShardsProbed != want {
			t.Fatalf("full fan-out probed %d shard searches, want %d", sa.ShardsProbed, want)
		}
	}
}

func TestRoutedSearchProbesFewerShards(t *testing.T) {
	idx, _, queries := buildRoutedIndex(t)
	full := idx.SearchNProbe(queries.Row(0), 10, 64, 0)
	routed := idx.SearchNProbe(queries.Row(0), 10, 64, 1)
	if len(full) != 10 || len(routed) != 10 {
		t.Fatalf("result sizes %d/%d, want 10/10", len(full), len(routed))
	}
	st := idx.SearchStats()
	if st.Queries != 2 || st.RoutedQueries != 1 {
		t.Fatalf("stats %+v, want 2 queries of which 1 routed", st)
	}
	if want := uint64(idx.Shards() + 1); st.ShardsProbed != want {
		t.Fatalf("probed %d shard searches, want %d", st.ShardsProbed, want)
	}

	// Batch routing counts every query and stays worker-deterministic.
	batch := idx.SearchBatchNProbe(queries, 10, 64, 2)
	if len(batch) != queries.N {
		t.Fatalf("batch returned %d lists", len(batch))
	}
	st = idx.SearchStats()
	if want := uint64(2 + queries.N); st.Queries != want {
		t.Fatalf("stats %+v, want %d queries", st, want)
	}
	for qi := 0; qi < queries.N; qi++ {
		single := idx.SearchNProbe(queries.Row(qi), 10, 64, 2)
		for j := range single {
			if batch[qi][j] != single[j] {
				t.Fatalf("query %d result %d: batch %v vs single %v", qi, j, batch[qi][j], single[j])
			}
		}
	}
}

// A routed build is a pure function of its data and options: the partition
// (2M tree, parallel nearest-centre pass, anchor grouping), the graphs and
// the routing centroids save to the same bytes at every worker count, for
// float32 and uint8 rows alike.
func TestRoutedDeterministicAcrossWorkerCounts(t *testing.T) {
	data := dataset.SIFTLike(1000, 31)
	u8, err := vec.U8FromMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, dtype := range []DType{DTypeFloat32, DTypeUint8} {
		var want []byte
		for _, workers := range []int{1, 2, 3} {
			opts := []Option{WithShards(4), WithRouting(4), WithKappa(10), WithXi(25), WithTau(3),
				WithSeed(8), WithWorkers(workers)}
			var idx *Index
			if dtype == DTypeUint8 {
				idx, err = BuildU8(context.Background(), u8, opts...)
			} else {
				idx, err = Build(context.Background(), data, opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			blob := gkxBlob(t, idx)
			if want == nil {
				want = blob
			} else if !bytes.Equal(blob, want) {
				t.Fatalf("%s routed build saves different bytes at %d workers than at 1", dtype, workers)
			}
		}
	}
}

// Recall under partial probing: probing more shards never loses recall,
// probing all of them is the full fan-out, and the router keeps most of the
// full-fan-out recall at nprobe 1 and 2 of 4. The floors hold a mean over
// five seeds (n=1000, 200 held-out queries each): one small fixture reads
// anything from 0.58 to 0.93 at nprobe 1, depending on where its few
// queries fall against the shard borders.
func TestRoutedRecallByNProbe(t *testing.T) {
	const seeds, shards = 5, 4
	// Measured means at nprobe 1/2/3/4: 0.7774/0.9141/0.9763/0.9972 for the
	// 2M tree plus one nearest-centre pass; 0.7306/0.8706/0.9412/0.9699 for
	// the k-means++ Lloyd partition it replaced. Floors are the tree's means
	// minus 0.03, which the Lloyd partition would fail at nprobe 1 and 2.
	floors := map[int]float64{1: 0.747, 2: 0.884}
	mean := make([]float64, shards+1)
	for seed := int64(1); seed <= seeds; seed++ {
		data, queries := Split(dataset.SIFTLike(1200, seed), 200)
		idx, err := Build(context.Background(), data, WithShards(shards), WithRouting(4),
			WithKappa(10), WithXi(25), WithTau(4), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		truth := ExactNeighbors(data, queries, 10)
		prev := 0.0
		for nprobe := 1; nprobe <= shards; nprobe++ {
			r := anns.RecallAtFunc(func(q []float32, topK, ef int) []Neighbor {
				return idx.SearchNProbe(q, topK, ef, nprobe)
			}, queries, truth, 10, 64)
			if r < prev {
				t.Fatalf("seed %d: recall fell from %.4f to %.4f going to nprobe %d", seed, prev, r, nprobe)
			}
			mean[nprobe] += r / seeds
			prev = r
		}
		if full := idx.Recall(queries, truth, 10, 64); prev != full {
			t.Fatalf("seed %d: nprobe = shards recall %v, full fan-out %v; want equal", seed, prev, full)
		}
	}
	for nprobe := 1; nprobe <= shards; nprobe++ {
		t.Logf("nprobe %d/%d: mean recall@10 %.4f", nprobe, shards, mean[nprobe])
		if floor, ok := floors[nprobe]; ok && mean[nprobe] < floor {
			t.Errorf("nprobe %d mean recall %.4f below floor %.3f", nprobe, mean[nprobe], floor)
		}
	}
}

// The probe width comes from the call alone: a positive nprobe below the
// shard count of a routed index probes that many shards, and every other
// value — negative, zero, past the shard count, or any value on an unrouted
// index — probes them all and answers exactly as Search does.
func TestSearchNProbeResolution(t *testing.T) {
	routed, _, queries := buildRoutedIndex(t)
	unrouted, _ := buildTestIndex(t, WithShards(3))
	q := queries.Row(0)
	for _, c := range []struct {
		name          string
		idx           *Index
		nprobe, probe int
	}{
		{"routed nprobe -1", routed, -1, 4},
		{"routed nprobe 0", routed, 0, 4},
		{"routed nprobe 3", routed, 3, 3},
		{"routed nprobe 9", routed, 9, 4},
		{"unrouted nprobe 1", unrouted, 1, 3},
	} {
		before := c.idx.SearchStats()
		got := c.idx.SearchNProbe(q, 10, 64, c.nprobe)
		st := c.idx.SearchStats()
		if probed := st.ShardsProbed - before.ShardsProbed; probed != uint64(c.probe) {
			t.Fatalf("%s: probed %d shards, want %d", c.name, probed, c.probe)
		}
		if routedQ := st.RoutedQueries - before.RoutedQueries; (routedQ == 1) != (c.probe < c.idx.Shards()) {
			t.Fatalf("%s: %d routed queries for %d of %d shards", c.name, routedQ, c.probe, c.idx.Shards())
		}
		if c.probe < c.idx.Shards() {
			continue
		}
		want := c.idx.Search(q, 10, 64)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, Search gives %d", c.name, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s result %d: %v, Search gives %v", c.name, j, got[j], want[j])
			}
		}
	}
}

func TestWithRoutingRequiresShards(t *testing.T) {
	data := dataset.SIFTLike(200, 9)
	_, err := Build(context.Background(), data,
		WithKappa(6), WithXi(15), WithTau(2), WithSeed(9), WithRouting(4))
	if err == nil || !strings.Contains(err.Error(), "WithShards") {
		t.Fatalf("WithRouting without WithShards: %v, want an error naming WithShards", err)
	}
}

func TestRoutedSaveLoadRoundTrip(t *testing.T) {
	idx, _, queries := buildRoutedIndex(t)
	blob := gkxBlob(t, idx)
	if flags := binary.LittleEndian.Uint32(blob[gkxFlagsOff:]); flags&flagRouting == 0 {
		t.Fatalf("routed index has no routing flag (flags %#x)", flags)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Routed() || loaded.RoutingCentroids() != idx.RoutingCentroids() {
		t.Fatalf("router lost in round trip: routed=%v centroids=%d",
			loaded.Routed(), loaded.RoutingCentroids())
	}
	// Byte-stable: writing the loaded index reproduces the stream exactly.
	var buf2 bytes.Buffer
	if _, err := loaded.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, buf2.Bytes()) {
		t.Fatal("routed index round trip is not byte-stable")
	}
	// Routed searches on the loaded index are identical, probe for probe.
	for qi := 0; qi < queries.N; qi++ {
		for _, np := range []int{1, 2, 0} {
			a := idx.SearchNProbe(queries.Row(qi), 10, 64, np)
			b := loaded.SearchNProbe(queries.Row(qi), 10, 64, np)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("query %d nprobe %d result %d differs: %v vs %v", qi, np, j, a[j], b[j])
				}
			}
		}
	}
}

func TestUnroutedPersistenceUnchanged(t *testing.T) {
	// An unrouted sharded index serialises with no routing flag and no
	// trailer: the routing section is strictly opt-in.
	idx, _ := buildTestIndex(t, WithShards(3))
	blob, at := gkxLayout(t, idx)
	if flags := binary.LittleEndian.Uint32(blob[gkxFlagsOff:]); flags&flagRouting != 0 {
		t.Fatalf("unrouted index has the routing flag set (flags %#x)", flags)
	}
	if at.routing != -1 {
		t.Fatal("unrouted index wrote a routing trailer")
	}
}

func TestRoutedMutationChain(t *testing.T) {
	idx, data, queries := buildRoutedIndex(t)
	extra := NewMatrix(8, idx.Dim())
	for i := range extra.Data {
		extra.Data[i] = float32(i % 97)
	}
	grown, err := idx.Append(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Routed() || grown.Shards() != idx.Shards()+1 {
		t.Fatalf("append lost routing: routed=%v shards=%d", grown.Routed(), grown.Shards())
	}
	// The appended shard routes: its rows are findable with nprobe 1 when
	// every shard is probed — and the new shard has centroids, so full
	// fan-out still works.
	newID := int32(data.N)
	if res := grown.Search(extra.Row(0), 1, 32); len(res) != 1 || res[0].ID != newID {
		t.Fatalf("appended row not found: %v", res)
	}

	pruned, err := grown.Delete(3, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Routed() {
		t.Fatal("delete dropped the router")
	}
	for _, nb := range pruned.SearchNProbe(queries.Row(0), 10, 64, 2) {
		if nb.ID == 3 || nb.ID == 700 {
			t.Fatalf("deleted id %d surfaced under routing", nb.ID)
		}
	}

	compacted, err := pruned.Compact(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !compacted.Routed() || compacted.RoutingCentroids() != idx.RoutingCentroids() {
		t.Fatal("compact dropped the router")
	}
	if res := compacted.Search(data.Row(999), 1, 32); len(res) != 1 || res[0].ID != 999 || res[0].Dist != 0 {
		t.Fatalf("self query after compact returned %v", res)
	}
	// The whole chain still round-trips with its router.
	var buf bytes.Buffer
	if _, err := compacted.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Routed() {
		t.Fatal("mutated routed index lost its router in the round trip")
	}
}

// Corrupt routing state — in the header flags or the centroid trailer — is
// rejected. The v4 cases corrupt the legacy fixture, the v7 ones the
// writer's output.
func TestRoutedReadRejectsCorruptCentroids(t *testing.T) {
	// The routing trailer sits at the end: uint32 k, then one
	// vec.WriteMatrix (8-byte shape header + rows*dim float32s) per shard.
	v4 := gkxFixture(t, "v4-routed")
	v4K := len(v4) - (4 + 2*(8+2*128*4)) // two shards, two centroids each
	idx, _, _ := buildRoutedIndex(t)
	v7, at := gkxLayout(t, idx)
	firstShape := at.routing + 4
	lastShape := len(v7) - (8 + 4*idx.route.Centroids(idx.Shards()-1).N*idx.Dim())

	for name, c := range map[string]struct {
		blob []byte
		k    int
	}{"v4": {v4, v4K}, "v7": {v7, at.routing}} {
		mustRejectGkx(t, name+" truncated trailer", c.blob[:len(c.blob)-5], "routing centroids")
		mustRejectGkx(t, name+" routing flag without trailer", c.blob[:c.k], "routing header")
		mustRejectPatches(t, c.blob, []gkxPatch{
			{name + " zero centroid count", put32(c.k, 0), "implausible routing centroid count"},
			{name + " absurd centroid count", put32(c.k, 1<<31), "implausible routing centroid count"},
			{name + " centroid count below a shard's", put32(c.k, 1), "corrupt routing section"},
			{name + " centroid dimensionality", put32(c.k+4+4, 64), ""},
			{name + " centroid rows zero", put32(c.k+4, 0), ""},
			{name + " routed without the sharded flag", clearFlags(flagSharded), "without the sharded flag"},
		})
	}
	mustRejectPatches(t, v4, []gkxPatch{
		{"v3 with routing flag", put32(4, 3), "v3 index with the routing flag"},
		{"v4 without routing flag", clearFlags(flagRouting), "v4 index without the routing flag"},
	})
	mustRejectPatches(t, v7, []gkxPatch{
		{"centroids of the wrong dimensionality", func(b []byte) {
			// 4×128 relabelled 8×64: same payload, wrong shape.
			put32(firstShape, 8)(b)
			put32(firstShape+4, 64)(b)
		}, "corrupt routing section"},
		{"more centroids than configured", func(b []byte) {
			put32(lastShape, 8)(b)
			put32(lastShape+4, 64)(b)
		}, ""},
	})
	// Without the flag the trailer is trailing bytes the loader never reads;
	// what it loads is then an unrouted index.
	unflagged := bytes.Clone(v7)
	clearFlags(flagRouting)(unflagged)
	if loaded, err := ReadIndexFrom(bytes.NewReader(unflagged)); err != nil || loaded.Routed() {
		t.Fatalf("routing flag cleared: err %v, want an unrouted index", err)
	}

	// More centroids than the segment has rows: the appended 4-row segment of
	// the mutated uint8 state gets a 5-centroid matrix (and k raised to fit).
	small, sat := gkxLayout(t, gkxState(t, "u8-routed-mutated"))
	last := len(small) - (8 + 4*2*128)
	var five bytes.Buffer
	if _, err := vec.WriteMatrix(&five, NewMatrix(5, 128)); err != nil {
		t.Fatal(err)
	}
	tooMany := append(bytes.Clone(small[:last]), five.Bytes()...)
	put32(sat.routing, 5)(tooMany)
	mustRejectGkx(t, "more centroids than rows", tooMany, "routing centroids for 4 rows")
}

// BenchmarkRoutedBuild times the three steps of a routed build at the
// benchmark's serve-read shape (12000×128 SIFTLike bytes, 4 shards, 32
// routing centroids per shard, κ20 ξ50 τ8) and reports each in ms: the
// partition (routedLayout), the segment graphs (buildSegs) and the routing
// centroids (routingCentroids), in the order build runs them.
func BenchmarkRoutedBuild(b *testing.B) {
	u8, err := vec.U8FromMatrix(dataset.SIFTLike(12000, 1))
	if err != nil {
		b.Fatal(err)
	}
	data := vec.RowsU8(u8)
	cfg := applyOptions(config{dtype: DTypeUint8}, []Option{WithShards(4), WithRouting(32),
		WithKappa(20), WithXi(50), WithTau(8), WithSeed(1)})
	var partition, graphs, centroids time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		parts, _, err := routedLayout(data, cfg, cfg.shards)
		if err != nil {
			b.Fatal(err)
		}
		partition += time.Since(start)
		segs, graphTime, err := buildSegs(context.Background(), parts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		graphs += graphTime
		start = time.Now()
		for s := range segs {
			if _, err := routingCentroids(segs[s].rows, cfg, 0, s); err != nil {
				b.Fatal(err)
			}
		}
		centroids += time.Since(start)
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(ms(partition), "partition-ms/op")
	b.ReportMetric(ms(graphs), "graph-ms/op")
	b.ReportMetric(ms(centroids), "centroids-ms/op")
}
