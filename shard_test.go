package gkmeans

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gkmeans/internal/dataset"
)

// buildShardedIndex is the shared fixture: a sharded index plus the
// unsharded reference over the same data and options.
func buildShardedIndex(t *testing.T, data *Matrix, nShards int, opts ...Option) *Index {
	t.Helper()
	idx, err := Build(context.Background(), data,
		append([]Option{WithShards(nShards)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestClampShards(t *testing.T) {
	cases := []struct{ requested, n, want int }{
		{0, 100, 1}, {1, 100, 1}, {-3, 100, 1},
		{4, 100, 4}, {50, 100, 50}, {51, 100, 50}, {1000, 100, 50},
		{2, 3, 1}, {2, 4, 2}, {3, 5, 2},
	}
	for _, c := range cases {
		if got := clampShards(c.requested, c.n); got != c.want {
			t.Errorf("clampShards(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestShardBoundsCoverContiguously(t *testing.T) {
	for _, c := range []struct{ total, n int }{{4, 1000}, {3, 1001}, {7, 103}} {
		prev := 0
		for s := 0; s < c.total; s++ {
			lo, hi := shardBounds(s, c.total, c.n)
			if lo != prev || hi <= lo {
				t.Fatalf("shardBounds(%d, %d, %d) = [%d,%d), prev end %d", s, c.total, c.n, lo, hi, prev)
			}
			prev = hi
		}
		if prev != c.n {
			t.Fatalf("%d shards over %d rows end at %d", c.total, c.n, prev)
		}
	}
}

// A sharded build must report its shape, share the dataset storage with the
// parent matrix (views, not copies) and refuse clustering.
func TestShardedBuildShape(t *testing.T) {
	data := dataset.SIFTLike(400, 7)
	idx := buildShardedIndex(t, data, 4, WithKappa(6), WithTau(3), WithSeed(7))

	if !idx.Sharded() || idx.Shards() != 4 {
		t.Fatalf("Sharded=%v Shards=%d, want true/4", idx.Sharded(), idx.Shards())
	}
	if idx.N() != data.N || idx.Dim() != data.Dim {
		t.Fatalf("sharded index shape %d×%d, want %d×%d", idx.N(), idx.Dim(), data.N, data.Dim)
	}
	if idx.Graph() != nil {
		t.Fatal("sharded index reports a global graph")
	}
	rows := 0
	for s, shard := range idx.segs {
		if &shard.rows.F32().Data[0] != &data.Data[rows*data.Dim] {
			t.Fatalf("shard %d dataset is a copy, want a view at row %d", s, rows)
		}
		rows += shard.rows.N
	}
	if rows != data.N {
		t.Fatalf("shards cover %d rows, want %d", rows, data.N)
	}

	if _, err := idx.Cluster(context.Background(), 4); err == nil {
		t.Fatal("Cluster on a sharded index did not error")
	}
	if _, err := Build(context.Background(), data, WithShards(2), WithClusters(4)); err == nil {
		t.Fatal("WithShards + WithClusters did not error")
	}
}

// WithShards(1) and a too-small dataset must fall back to the monolithic
// path, clustering included.
func TestShardsOneIsMonolithic(t *testing.T) {
	data := dataset.GloVeLike(60, 3)
	idx, err := Build(context.Background(), data,
		WithShards(1), WithKappa(5), WithTau(2), WithSeed(3), WithClusters(3))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Sharded() || idx.Shards() != 1 || idx.Graph() == nil || idx.Clusters() == nil {
		t.Fatalf("WithShards(1) built Sharded=%v Shards=%d", idx.Sharded(), idx.Shards())
	}
}

// Fan-out search must return globally correct results: every id a shard
// search would find locally, remapped into the global id space, merged by
// distance. Cross-check against brute force on an easy corpus.
func TestShardedSearchMatchesExactOnEasyData(t *testing.T) {
	all := dataset.SIFTLike(1200, 11)
	data, queries := Split(all, 60)
	idx := buildShardedIndex(t, data, 3, WithKappa(10), WithTau(6), WithSeed(11))

	truth := ExactNeighbors(data, queries, 10)
	recall := idx.Recall(queries, truth, 10, 256)
	if recall < 0.95 {
		t.Fatalf("sharded recall@10 = %.3f, want >= 0.95 at ef=256", recall)
	}

	// Results must be sorted, within range and deduplicated.
	for qi := 0; qi < queries.N; qi++ {
		res := idx.Search(queries.Row(qi), 10, 64)
		if len(res) != 10 {
			t.Fatalf("query %d returned %d results", qi, len(res))
		}
		seen := map[int32]bool{}
		for i, nb := range res {
			if nb.ID < 0 || int(nb.ID) >= data.N {
				t.Fatalf("query %d result %d id %d out of range", qi, i, nb.ID)
			}
			if seen[nb.ID] {
				t.Fatalf("query %d returned duplicate id %d", qi, nb.ID)
			}
			seen[nb.ID] = true
			if i > 0 && res[i-1].Dist > nb.Dist {
				t.Fatalf("query %d results not sorted at %d", qi, i)
			}
		}
	}
}

// Sharded recall must track unsharded recall on the same data: every shard
// is searched with the full ef budget, so the merged results stay at least
// as good up to small-graph navigation noise. (At production scale the
// sharded index typically wins outright — smaller graphs plus shard-count
// times the entry points.)
func TestShardedRecallParity(t *testing.T) {
	all := dataset.SIFTLike(3000, 5)
	data, queries := Split(all, 150)
	opts := []Option{WithKappa(20), WithTau(6), WithSeed(5)}

	mono, err := Build(context.Background(), data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded := buildShardedIndex(t, data, 4, opts...)

	truth := ExactNeighbors(data, queries, 10)
	rm := mono.Recall(queries, truth, 10, 128)
	rs := sharded.Recall(queries, truth, 10, 128)
	t.Logf("recall@10: monolithic %.3f, sharded %.3f", rm, rs)
	if rs < rm-0.01 {
		t.Fatalf("sharded recall %.3f more than 0.01 below monolithic %.3f", rs, rm)
	}
}

// The acceptance determinism property: WithShards(n) + a fixed seed must
// yield identical merged results — and identical persisted bytes — at any
// worker count, for Search and SearchBatch alike.
func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	all := dataset.GloVeLike(900, 17)
	data, queries := Split(all, 40)

	type snapshot struct {
		blob    []byte
		single  [][]Neighbor
		batched [][]Neighbor
	}
	build := func(workers int) snapshot {
		idx := buildShardedIndex(t, data, 3,
			WithKappa(8), WithTau(4), WithSeed(17), WithWorkers(workers))
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap := snapshot{blob: buf.Bytes(), batched: idx.SearchBatch(queries, 5, 32)}
		for qi := 0; qi < queries.N; qi++ {
			snap.single = append(snap.single, idx.Search(queries.Row(qi), 5, 32))
		}
		return snap
	}

	ref := build(1)
	for _, workers := range []int{2, 4, 0} {
		got := build(workers)
		if !bytes.Equal(ref.blob, got.blob) {
			t.Fatalf("workers=%d produced different persisted bytes than workers=1", workers)
		}
		for qi := range ref.single {
			assertSameNeighbors(t, fmt.Sprintf("workers=%d query %d (single)", workers, qi),
				ref.single[qi], got.single[qi])
			assertSameNeighbors(t, fmt.Sprintf("workers=%d query %d (batch)", workers, qi),
				ref.batched[qi], got.batched[qi])
		}
	}
	// Single and batch must agree with each other too.
	for qi := range ref.single {
		assertSameNeighbors(t, fmt.Sprintf("query %d single vs batch", qi), ref.single[qi], ref.batched[qi])
	}
}

func assertSameNeighbors(t *testing.T, where string, a, b []Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", where, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs: %+v vs %+v", where, i, a[i], b[i])
		}
	}
}

// SearchStats on a sharded index: the logical query count must not be
// multiplied by the shard count, while the work counters aggregate across
// every shard.
func TestShardedSearchStats(t *testing.T) {
	data := dataset.SIFTLike(300, 9)
	idx := buildShardedIndex(t, data, 3, WithKappa(6), WithTau(3), WithSeed(9))

	if st := idx.SearchStats(); st != (SearchStats{}) {
		t.Fatalf("stats before first search: %+v", st)
	}
	const nq = 7
	for i := 0; i < nq; i++ {
		idx.Search(data.Row(i), 3, 16)
	}
	st := idx.SearchStats()
	if st.Queries != nq {
		t.Fatalf("Queries = %d, want %d (not shard-multiplied)", st.Queries, nq)
	}
	if st.DistanceComps == 0 || st.ExpandedCandidates == 0 {
		t.Fatalf("work counters empty: %+v", st)
	}
	var shardDist uint64
	for _, shard := range idx.segs {
		_, dist, _ := shard.searcher.Load().Totals()
		shardDist += dist
	}
	if st.DistanceComps != shardDist {
		t.Fatalf("DistanceComps = %d, shard sum %d", st.DistanceComps, shardDist)
	}
}

// A sharded index must survive a Save/Load round-trip bit-identically:
// same shape, same persisted bytes when re-saved, same search results.
func TestShardedPersistRoundTrip(t *testing.T) {
	all := dataset.SIFTLike(800, 23)
	data, queries := Split(all, 30)
	idx := buildShardedIndex(t, data, 4, WithKappa(8), WithTau(4), WithSeed(23), WithEntryPoints(8))

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Sharded() || loaded.Shards() != idx.Shards() {
		t.Fatalf("loaded Shards = %d, want %d", loaded.Shards(), idx.Shards())
	}
	if loaded.N() != idx.N() || loaded.Dim() != idx.Dim() {
		t.Fatalf("loaded shape %d×%d, want %d×%d", loaded.N(), loaded.Dim(), idx.N(), idx.Dim())
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-saving the loaded index produced different bytes")
	}
	for qi := 0; qi < queries.N; qi++ {
		assertSameNeighbors(t, fmt.Sprintf("query %d", qi),
			idx.Search(queries.Row(qi), 5, 64), loaded.Search(queries.Row(qi), 5, 64))
	}
}

// The WithShards+WithClusters conflict must error even when the dataset is
// so small that the shard count would clamp to 1 (the documented contract
// does not depend on dataset size).
func TestShardsWithClustersErrorsEvenWhenClamped(t *testing.T) {
	data := dataset.GloVeLike(3, 1) // clampShards(2, 3) == 1
	if _, err := Build(context.Background(), data, WithShards(2), WithClusters(2)); err == nil {
		t.Fatal("WithShards + WithClusters accepted on a clamp-to-1 dataset")
	}
}

// mergeShardResults is a pure k-way merge over already-remapped parts:
// equal distances across shard boundaries must break ties by ascending
// global id, and a topK beyond the surviving candidates returns them all.
func TestMergeShardResultsTiesAcrossShards(t *testing.T) {
	parts := [][]Neighbor{
		{{ID: 10, Dist: 1.0}, {ID: 12, Dist: 2.0}},
		{{ID: 3, Dist: 1.0}, {ID: 5, Dist: 2.0}},
		{{ID: 7, Dist: 1.0}},
	}
	got := mergeShardResults(parts, 4)
	want := []Neighbor{{ID: 3, Dist: 1.0}, {ID: 7, Dist: 1.0}, {ID: 10, Dist: 1.0}, {ID: 5, Dist: 2.0}}
	assertSameNeighbors(t, "equal-distance ties across shards", got, want)

	// Order of the parts must not matter: the merge sorts globally.
	reversed := [][]Neighbor{parts[2], parts[1], parts[0]}
	assertSameNeighbors(t, "part order independence", mergeShardResults(reversed, 4), want)
}

func TestMergeShardResultsTopKBeyondCandidates(t *testing.T) {
	parts := [][]Neighbor{
		{{ID: 4, Dist: 0.5}},
		nil,
		{{ID: 1, Dist: 0.25}},
	}
	got := mergeShardResults(parts, 10)
	want := []Neighbor{{ID: 1, Dist: 0.25}, {ID: 4, Dist: 0.5}}
	assertSameNeighbors(t, "topK larger than surviving candidates", got, want)

	if res := mergeShardResults(nil, 3); len(res) != 0 {
		t.Fatalf("merge of no parts returned %d results", len(res))
	}
	if res := mergeShardResults([][]Neighbor{nil, nil}, 3); len(res) != 0 {
		t.Fatalf("merge of empty parts returned %d results", len(res))
	}
}
