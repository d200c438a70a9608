package gkmeans

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gkmeans/internal/dataset"
)

func TestDefaultEfContract(t *testing.T) {
	cases := []struct {
		topK, ef, want int
	}{
		{10, 0, 40},   // non-positive ef selects 4·topK
		{4, 0, 32},    // … floored at 32
		{10, -7, 40},  // any non-positive value means "default"
		{10, 64, 64},  // explicit ef passes through
		{10, 10, 10},  // ef == topK passes through
		{50, 20, 50},  // ef < topK is raised to topK
		{100, 1, 100}, // … even from a tiny pool request
	}
	for _, c := range cases {
		if got := defaultEf(c.topK, c.ef); got != c.want {
			t.Errorf("defaultEf(%d, %d) = %d, want %d", c.topK, c.ef, got, c.want)
		}
	}
}

// Regression: topK larger than the explicit ef must still return topK
// results — the documented "ef < topK is raised to topK" contract.
func TestSearchTopKLargerThanEf(t *testing.T) {
	idx, queries := buildTestIndex(t)
	res := idx.Search(queries.Row(0), 50, 8)
	if len(res) != 50 {
		t.Fatalf("topK=50 ef=8 returned %d results, want 50", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatal("results not sorted by ascending distance")
		}
	}
	batch := idx.SearchBatch(queries, 50, 8)
	for qi, r := range batch {
		if len(r) != 50 {
			t.Fatalf("batch query %d: %d results, want 50", qi, len(r))
		}
	}
}

// Regression: topK larger than the index returns every indexed sample
// rather than panicking or padding.
func TestSearchTopKLargerThanIndex(t *testing.T) {
	data := dataset.SIFTLike(60, 3)
	idx, err := Build(context.Background(), data, WithKappa(8), WithXi(15), WithTau(3), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search(data.Row(0), 1000, 0)
	if len(res) != data.N {
		t.Fatalf("topK=1000 over %d samples returned %d results", data.N, len(res))
	}
	seen := make(map[int32]bool, len(res))
	for _, nb := range res {
		if seen[nb.ID] {
			t.Fatalf("duplicate id %d in exhaustive result", nb.ID)
		}
		seen[nb.ID] = true
	}
}

func TestSearchDimensionMismatchPanics(t *testing.T) {
	idx, _ := buildTestIndex(t)
	assertDimPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: dimension mismatch did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "dimensionality") {
				t.Fatalf("%s: panic %v does not name the dimensionality mismatch", name, r)
			}
		}()
		fn()
	}
	assertDimPanic("Search short", func() { idx.Search(make([]float32, idx.Dim()-1), 5, 32) })
	assertDimPanic("Search long", func() { idx.Search(make([]float32, idx.Dim()+1), 5, 32) })
	assertDimPanic("SearchBatch", func() { idx.SearchBatch(NewMatrix(3, idx.Dim()+2), 5, 32) })
}

// An empty batch must not trip the dimensionality check (a zero-value
// matrix has Dim 0) and returns zero result lists.
func TestSearchBatchEmpty(t *testing.T) {
	idx, _ := buildTestIndex(t)
	if got := idx.SearchBatch(&Matrix{}, 5, 32); len(got) != 0 {
		t.Fatalf("empty batch returned %d result lists", len(got))
	}
}

func TestLoadVectorsDispatch(t *testing.T) {
	dir := t.TempDir()
	m := dataset.SIFTLike(20, 9) // quantised non-negative values fit bytes

	fpath := filepath.Join(dir, "x.fvecs")
	if err := SaveFvecs(fpath, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVectors(fpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("fvecs round trip via LoadVectors mismatch")
	}

	bpath := filepath.Join(dir, "x.bvecs")
	f, err := os.Create(bpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBvecs(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = LoadVectors(bpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("bvecs round trip via LoadVectors mismatch")
	}
	if _, err := LoadBvecs(bpath, 5); err != nil {
		t.Fatalf("LoadBvecs: %v", err)
	}
}

// Equal distances come back in ascending id order on every index, not only
// where a merge sorted them: a one-segment index over a corpus full of
// exact duplicates returns each group of ties lowest id first.
func TestSearchTiesOrderedByID(t *testing.T) {
	base := dataset.SIFTLike(40, 91)
	data := NewMatrix(4*base.N, base.Dim)
	for i := 0; i < data.N; i++ {
		copy(data.Row(i), base.Row(i%base.N))
	}
	idx, err := Build(context.Background(), data, WithKappa(8), WithTau(3), WithSeed(91))
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for qi := 0; qi < base.N; qi++ {
		res := idx.Search(base.Row(qi), 12, 64)
		for i := 1; i < len(res); i++ {
			if res[i].Dist == res[i-1].Dist {
				ties++
				if res[i].ID < res[i-1].ID {
					t.Fatalf("query %d: tie at %d not in id order: %+v after %+v", qi, i, res[i], res[i-1])
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("fixture produced no ties")
	}
	got := orderTies([]Neighbor{{ID: 5, Dist: 1}, {ID: 9, Dist: 2}, {ID: 3, Dist: 2}, {ID: 1, Dist: 2}, {ID: 0, Dist: 3}})
	want := []Neighbor{{ID: 5, Dist: 1}, {ID: 1, Dist: 2}, {ID: 3, Dist: 2}, {ID: 9, Dist: 2}, {ID: 0, Dist: 3}}
	assertSameNeighbors(t, "orderTies", got, want)
}
