package gkmeans

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// liveSearch is the test oracle: exact nearest neighbours over the live
// (non-deleted) rows only, by external id.
func liveSearch(idx *Index, q []float32, topK int) []Neighbor {
	var all []Neighbor
	for s := range idx.segs {
		sg := &idx.segs[s]
		for l := 0; l < sg.rows.N; l++ {
			if sg.tomb != nil && sg.tomb.Get(l) {
				continue
			}
			all = append(all, Neighbor{ID: sg.id(l), Dist: vec.L2Sqr(q, sg.rows.F32().Row(l))})
		}
	}
	return mergeShardResults([][]Neighbor{all}, topK)
}

func TestAppendGrowsIndex(t *testing.T) {
	all := dataset.SIFTLike(320, 41)
	data, extra := Split(all, 20)
	old, err := Build(context.Background(), data, WithKappa(8), WithTau(4), WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := old.Append(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}

	if idx.N() != all.N || idx.Live() != all.N || idx.IDBound() != int32(all.N) {
		t.Fatalf("appended index N=%d Live=%d IDBound=%d, want %d", idx.N(), idx.Live(), idx.IDBound(), all.N)
	}
	if !idx.Sharded() || idx.Shards() != 2 {
		t.Fatalf("append produced Shards=%d, want 2 (old rows + new shard)", idx.Shards())
	}
	// Copy-on-write: the receiver is untouched and still answers over the
	// old rows only.
	if old.Sharded() || old.N() != data.N {
		t.Fatalf("receiver mutated: Sharded=%v N=%d", old.Sharded(), old.N())
	}
	// Every appended vector must be findable at its assigned id (the exact
	// row is in the index, so the top-1 at a generous ef must be it).
	for i := 0; i < extra.N; i++ {
		wantID := int32(data.N + i)
		res := idx.Search(extra.Row(i), 1, 256)
		if len(res) != 1 || res[0].ID != wantID {
			t.Fatalf("appended vector %d: got %+v, want id %d", i, res, wantID)
		}
	}
	// Old rows keep their ids.
	res := idx.Search(data.Row(3), 1, 256)
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("old row 3: got %+v", res)
	}
	// The new parent dataset is the concatenation of old rows then new
	// rows, in order.
	want := append(append([]float32{}, data.Data...), extra.Data...)
	got := idx.Data().Data
	if len(got) != len(want) {
		t.Fatalf("appended dataset has %d floats, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("appended dataset differs from old+new concatenation at float %d", i)
		}
	}
}

// Append copies only the vectors it is handed: the receiver's rows stay in
// its segments, shared with the result, and are never laid out again.
func TestAppendDoesNotCopyReceiverRows(t *testing.T) {
	data, extra := Split(dataset.SIFTLike(4008, 67), 8)
	for _, dt := range []DType{DTypeFloat32, DTypeUint8} {
		idx, err := Build(context.Background(), data, WithDType(dt), WithKappa(6), WithXi(12), WithTau(2), WithSeed(67))
		if err != nil {
			t.Fatal(err)
		}
		width := uint64(4)
		if dt == DTypeUint8 {
			width = 1
		}
		rowBytes := uint64(idx.N()*idx.Dim()) * width
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		grown, err := idx.Append(context.Background(), extra)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Append of %d rows allocated %d bytes beside %d bytes of receiver rows", dt, extra.N, alloc, rowBytes)
		if alloc >= rowBytes/2 {
			t.Errorf("%s: Append of %d rows allocated %d bytes, as if it copied the receiver's %d bytes of rows", dt, extra.N, alloc, rowBytes)
		}
		if grown.segs[0].segCore != idx.segs[0].segCore {
			t.Errorf("%s: the appended index does not share the receiver's segment", dt)
		}
	}
}

func TestAppendErrors(t *testing.T) {
	data := dataset.SIFTLike(60, 43)
	idx, err := Build(context.Background(), data, WithKappa(6), WithTau(3), WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Append(context.Background(), nil); err == nil {
		t.Fatal("Append(nil) did not error")
	}
	if _, err := idx.Append(context.Background(), NewMatrix(2, data.Dim+1)); err == nil {
		t.Fatal("Append with wrong dimensionality did not error")
	}
	one := vec.RowsF32(data).View(0, 1).F32()
	if _, err := idx.Append(context.Background(), one); err == nil {
		t.Fatal("Append of a single vector did not error (a shard graph needs two rows)")
	}
	clustered, err := Build(context.Background(), data, WithKappa(6), WithTau(3), WithSeed(43), WithClusters(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clustered.Append(context.Background(), vec.RowsF32(data).View(0, 4).F32()); err == nil {
		t.Fatal("Append on a clustered index did not error")
	}
}

func TestDeleteSkipsRowsEverywhere(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			all := dataset.SIFTLike(640, 47)
			data, queries := Split(all, 40)
			old, err := Build(context.Background(), data,
				WithShards(shards), WithKappa(8), WithTau(4), WithSeed(47))
			if err != nil {
				t.Fatal(err)
			}
			// Delete the exact nearest neighbour of each query so the miss
			// would be visible at the top of every result list.
			truth := ExactNeighbors(data, queries, 1)
			var doomed []int32
			seen := map[int32]bool{}
			for _, row := range truth {
				if !seen[row[0]] {
					doomed = append(doomed, row[0])
					seen[row[0]] = true
				}
			}
			idx, err := old.Delete(doomed...)
			if err != nil {
				t.Fatal(err)
			}
			if idx.Deleted() != len(doomed) || idx.Live() != data.N-len(doomed) {
				t.Fatalf("Deleted=%d Live=%d, want %d/%d", idx.Deleted(), idx.Live(), len(doomed), data.N-len(doomed))
			}
			if old.Deleted() != 0 {
				t.Fatalf("receiver mutated: Deleted=%d", old.Deleted())
			}

			batch := idx.SearchBatch(queries, 10, 0)
			for qi := 0; qi < queries.N; qi++ {
				res := idx.Search(queries.Row(qi), 10, 0)
				if len(res) != 10 {
					t.Fatalf("query %d returned %d results, want 10", qi, len(res))
				}
				for _, nb := range res {
					if seen[nb.ID] {
						t.Fatalf("query %d returned deleted id %d", qi, nb.ID)
					}
				}
				assertSameNeighbors(t, fmt.Sprintf("query %d single vs batch", qi), res, batch[qi])
			}
			// The old index must still surface the deleted rows: looking a
			// doomed row's own vector up finds it at distance zero.
			for _, id := range doomed[:5] {
				oldRes := old.Search(data.Row(int(id)), 1, 128)
				if len(oldRes) != 1 || oldRes[0].ID != id {
					t.Fatalf("old index lost row %d: %+v", id, oldRes)
				}
				newRes := idx.Search(data.Row(int(id)), 1, 128)
				if len(newRes) == 1 && newRes[0].ID == id {
					t.Fatalf("deleted row %d still surfaces for its own vector", id)
				}
			}

			// Deleting an already-deleted id is a no-op; an unknown id errors.
			again, err := idx.Delete(doomed[0])
			if err != nil {
				t.Fatal(err)
			}
			if again.Deleted() != idx.Deleted() {
				t.Fatalf("re-delete changed the count: %d vs %d", again.Deleted(), idx.Deleted())
			}
			if _, err := idx.Delete(int32(data.N) + 5); err == nil {
				t.Fatal("Delete of an unknown id did not error")
			}
			if _, err := idx.Delete(-1); err == nil {
				t.Fatal("Delete of a negative id did not error")
			}
		})
	}
}

// Deleting every exact top-k row must surface the next-best live rows —
// the overfetch has to dig past the tombstones, not return short lists.
func TestDeleteSurfacesNextBest(t *testing.T) {
	all := dataset.GloVeLike(500, 53)
	data, queries := Split(all, 10)
	base, err := Build(context.Background(), data, WithShards(2), WithKappa(10), WithTau(5), WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	q := queries.Row(0)
	exact := ExactNeighbors(data, vec.RowsF32(queries).View(0, 1).F32(), 5)[0]
	idx, err := base.Delete(exact...)
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search(q, 5, data.N)
	want := liveSearch(idx, q, 5)
	assertSameNeighbors(t, "next-best after deleting the exact top-5", res, want)
}

func TestClusterRefusesDeletedRows(t *testing.T) {
	data := dataset.SIFTLike(80, 59)
	base, err := Build(context.Background(), data, WithKappa(6), WithTau(3), WithSeed(59))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := base.Delete(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Cluster(context.Background(), 4); err == nil {
		t.Fatal("Cluster over deleted rows did not error")
	}
	if _, err := base.Cluster(context.Background(), 4); err != nil {
		t.Fatalf("Cluster on the untouched receiver errored: %v", err)
	}
}

// The acceptance property: compacting tombstone-heavy shards changes no
// search results — the live top-k is bit-identical before and after, at an
// ef that makes the per-shard searches effectively exhaustive.
func TestCompactPreservesResults(t *testing.T) {
	all := dataset.SIFTLike(560, 61)
	data, queries := Split(all, 40)
	base, err := Build(context.Background(), data,
		WithShards(4), WithKappa(10), WithTau(5), WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone ~40% of shard 1 and a few rows of shard 2.
	var doomed []int32
	lo := base.segs[1].base
	for i := int32(0); i < int32(base.segs[1].rows.N*2/5); i++ {
		doomed = append(doomed, lo+i)
	}
	doomed = append(doomed, base.segs[2].base+1, base.segs[2].base+7)
	idx, err := base.Delete(doomed...)
	if err != nil {
		t.Fatal(err)
	}

	ef := data.N // effectively exhaustive per shard
	before := make([][]Neighbor, queries.N)
	for qi := range before {
		before[qi] = idx.Search(queries.Row(qi), 10, ef)
	}

	compacted, err := idx.Compact(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Deleted() != 0 {
		t.Fatalf("compacted index still has %d tombstones", compacted.Deleted())
	}
	if compacted.Shards() != 3 {
		t.Fatalf("compacted Shards=%d, want 3 (two merged into one)", compacted.Shards())
	}
	if compacted.Live() != idx.Live() || compacted.N() != idx.Live() {
		t.Fatalf("compacted N=%d Live=%d, want %d", compacted.N(), compacted.Live(), idx.Live())
	}
	if compacted.IDBound() != idx.IDBound() {
		t.Fatalf("compaction changed the id bound: %d vs %d", compacted.IDBound(), idx.IDBound())
	}
	for qi := 0; qi < queries.N; qi++ {
		after := compacted.Search(queries.Row(qi), 10, ef)
		assertSameNeighbors(t, fmt.Sprintf("query %d before vs after compaction", qi), before[qi], after)
	}
	// The source index is untouched and still filtering tombstones.
	if idx.Deleted() != len(doomed) {
		t.Fatalf("source index mutated: Deleted=%d", idx.Deleted())
	}

	// Ids survive: the merged shard carries an id map (row removal made ids
	// non-contiguous), deleting a surviving id still works, and deleting a
	// compacted-away id now errors.
	if _, err := compacted.Delete(doomed[0]); err == nil {
		t.Fatal("Delete of a compacted-away id did not error")
	}
	survivor := base.segs[2].base + 2
	d2, err := compacted.Delete(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Search(data.Row(int(survivor)), 1, ef); len(got) == 1 && got[0].ID == survivor {
		t.Fatalf("deleted survivor %d still surfaces", survivor)
	}
}

// Compact() with no targets folds everything — including a monolithic
// index with tombstones — into one fresh shard holding only live rows.
func TestCompactAllMonolithic(t *testing.T) {
	data := dataset.GloVeLike(90, 67)
	base, err := Build(context.Background(), data, WithKappa(6), WithTau(3), WithSeed(67))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := base.Delete(0, 5, 88)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := idx.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if compacted.N() != data.N-3 || compacted.Deleted() != 0 {
		t.Fatalf("compacted N=%d Deleted=%d, want %d/0", compacted.N(), compacted.Deleted(), data.N-3)
	}
	for qi := 0; qi < 10; qi++ {
		got := compacted.Search(data.Row(qi*7+1), 5, data.N)
		want := liveSearch(idx, data.Row(qi*7+1), 5)
		assertSameNeighbors(t, fmt.Sprintf("query %d", qi), got, want)
	}
	if _, err := idx.Compact(context.Background(), 3); err == nil {
		t.Fatal("Compact of an out-of-range shard did not error")
	}
}

// An all-rows-deleted compaction must be refused, not produce an empty
// index.
func TestCompactRefusesEmptying(t *testing.T) {
	data := dataset.SIFTLike(40, 71)
	base, err := Build(context.Background(), data, WithKappa(5), WithTau(3), WithSeed(71))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, data.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	idx, err := base.Delete(ids...)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Search(data.Row(0), 3, 0); len(got) != 0 {
		t.Fatalf("fully deleted index returned %d results", len(got))
	}
	if _, err := idx.Compact(context.Background()); err == nil {
		t.Fatal("compacting a fully deleted index did not error")
	}
}

// Mutations must be deterministic: the same Build + Append + Delete +
// Compact sequence yields identical persisted bytes and search results at
// every worker count.
func TestMutationsDeterministicAcrossWorkerCounts(t *testing.T) {
	all := dataset.SIFTLike(400, 73)
	data, rest := Split(all, 60)
	extra, queries := Split(rest, 20)

	type snapshot struct {
		blob    []byte
		results [][]Neighbor
	}
	run := func(workers int) snapshot {
		base, err := Build(context.Background(), data,
			WithShards(2), WithKappa(8), WithTau(4), WithSeed(73), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := base.Append(context.Background(), extra)
		if err != nil {
			t.Fatal(err)
		}
		idx, err = idx.Delete(3, 9, int32(data.N)+1)
		if err != nil {
			t.Fatal(err)
		}
		idx, err = idx.Compact(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap := snapshot{blob: buf.Bytes()}
		for qi := 0; qi < queries.N; qi++ {
			snap.results = append(snap.results, idx.Search(queries.Row(qi), 8, 128))
		}
		return snap
	}
	ref := run(1)
	for _, workers := range []int{2, 0} {
		got := run(workers)
		if !bytes.Equal(ref.blob, got.blob) {
			t.Fatalf("workers=%d produced different persisted bytes than workers=1", workers)
		}
		for qi := range ref.results {
			assertSameNeighbors(t, fmt.Sprintf("workers=%d query %d", workers, qi), ref.results[qi], got.results[qi])
		}
	}
}

// A mutated index (append + delete + compact ⇒ tombstones, id maps,
// generations, an id bound past the row count) must round-trip through the
// v3 container: same shape, same metadata, same search results, and
// re-saving the loaded index reproduces the bytes.
func TestMutatedPersistRoundTrip(t *testing.T) {
	all := dataset.SIFTLike(360, 79)
	data, rest := Split(all, 60)
	extra, queries := Split(rest, 20)

	base, err := Build(context.Background(), data, WithShards(2), WithKappa(8), WithTau(4), WithSeed(79), WithEntryPoints(6))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := base.Append(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	idx, err = idx.Delete(0, 7, int32(data.N)+2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err = idx.Compact(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Still carrying: one tombstoned shard (shard 1), one id-mapped shard
	// (the compacted shard 0), generations, and IDBound > N.
	if idx.Deleted() == 0 || idx.segs[0].ids == nil {
		t.Fatalf("fixture lost its mutation state: Deleted=%d idmap=%v", idx.Deleted(), idx.segs[0].ids)
	}

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != idx.N() || loaded.Shards() != idx.Shards() ||
		loaded.Deleted() != idx.Deleted() || loaded.IDBound() != idx.IDBound() {
		t.Fatalf("loaded N=%d Shards=%d Deleted=%d IDBound=%d, want %d/%d/%d/%d",
			loaded.N(), loaded.Shards(), loaded.Deleted(), loaded.IDBound(),
			idx.N(), idx.Shards(), idx.Deleted(), idx.IDBound())
	}
	for s := range idx.segs {
		if loaded.segs[s].gen != idx.segs[s].gen {
			t.Fatalf("shard %d generation %d, want %d", s, loaded.segs[s].gen, idx.segs[s].gen)
		}
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
			idx.Search(queries.Row(qi), 8, 128), loaded.Search(queries.Row(qi), 8, 128))
	}

	// A monolithic index with tombstones round-trips too, and further
	// mutation of the loaded index works.
	mono, err := NewIndex(base.segs[0].rows.F32(), base.segs[0].graph)
	if err != nil {
		t.Fatal(err)
	}
	monoDel, err := mono.Delete(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := monoDel.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	monoLoaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if monoLoaded.Sharded() || monoLoaded.Deleted() != 2 {
		t.Fatalf("loaded mono: Sharded=%v Deleted=%d", monoLoaded.Sharded(), monoLoaded.Deleted())
	}
	if _, err := monoLoaded.Delete(3); err != nil {
		t.Fatalf("deleting on the loaded mono index: %v", err)
	}
}
