package gkmeans

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

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

// Recall under partial probing: probing more shards never loses recall,
// probing all of them is the full fan-out, and the router keeps most of the
// full-fan-out recall at nprobe 1 and 2 of 4.
func TestRoutedRecallByNProbe(t *testing.T) {
	idx, data, queries := buildRoutedIndex(t)
	truth := ExactNeighbors(data, queries, 10)
	// Floors are the values measured on this fixture (0.9275, 0.9600) minus 0.05.
	floors := map[int]float64{1: 0.877, 2: 0.910}
	prev := 0.0
	for nprobe := 1; nprobe <= idx.Shards(); nprobe++ {
		r := anns.RecallAtFunc(func(q []float32, topK, ef int) []Neighbor {
			return idx.SearchNProbe(q, topK, ef, nprobe)
		}, queries, truth, 10, 64)
		t.Logf("nprobe %d/%d: recall@10 %.4f", nprobe, idx.Shards(), r)
		if r < prev {
			t.Fatalf("recall fell from %.4f to %.4f going to nprobe %d", prev, r, nprobe)
		}
		if floor, ok := floors[nprobe]; ok && r < floor {
			t.Fatalf("nprobe %d recall %.4f below floor %.3f", nprobe, r, floor)
		}
		prev = r
	}
	if full := idx.Recall(queries, truth, 10, 64); prev != full {
		t.Fatalf("nprobe = shards recall %v, full fan-out %v; want equal", prev, full)
	}
}

func TestWithNProbeDefault(t *testing.T) {
	idx, _, queries := buildRoutedIndex(t, WithNProbe(2))
	ref, _, _ := buildRoutedIndex(t)
	// The index default applies when the per-call value is 0 and loses to a
	// positive per-call value.
	a := idx.Search(queries.Row(0), 10, 64)
	b := ref.SearchNProbe(queries.Row(0), 10, 64, 2)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("WithNProbe(2) default result %d: %v vs explicit %v", j, a[j], b[j])
		}
	}
	if st := idx.SearchStats(); st.RoutedQueries != 1 || st.ShardsProbed != 2 {
		t.Fatalf("stats %+v, want 1 routed query probing 2 shards", st)
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
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != 4 {
		t.Fatalf("routed index serialised as version %d, want 4", v)
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
	// An unrouted sharded index must still serialise as version 3 with no
	// routing flag: the v4 section is strictly opt-in.
	idx, _ := buildTestIndex(t, WithShards(3))
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if v := binary.LittleEndian.Uint32(blob[4:8]); v == 4 {
		t.Fatal("unrouted index serialised as version 4")
	}
	if flags := binary.LittleEndian.Uint32(blob[8:12]); flags&flagRouting != 0 {
		t.Fatalf("unrouted index has the routing flag set (flags %#x)", flags)
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
	// The whole chain still round-trips as v4.
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

func TestRoutedReadRejectsCorruptCentroids(t *testing.T) {
	idx, _, _ := buildRoutedIndex(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// The routing trailer sits at the end: uint32 k, then one
	// vec.WriteMatrix (8-byte shape header + rows*dim float32s) per shard.
	trailer := 4
	for s := 0; s < idx.Shards(); s++ {
		trailer += 8 + idx.route.Centroids(s).N*idx.Dim()*4
	}
	kOff := len(blob) - trailer

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := mutate(append([]byte(nil), blob...))
		if _, err := ReadIndexFrom(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: corrupt routed index accepted", name)
		}
	}
	corrupt("truncated trailer", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("zero centroid count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[kOff:], 0)
		return b
	})
	corrupt("absurd centroid count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[kOff:], 1<<31)
		return b
	})
	corrupt("routing flag without trailer", func(b []byte) []byte { return b[:kOff] })
	corrupt("v3 with routing flag", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:8], 3)
		return b
	})
}
