package anns

import (
	"math"
	"testing"

	"gkmeans/internal/core"
	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// u8Fixture builds the same corpus twice — once widened to float32, once
// kept as bytes — with one shared graph, the exact situation the uint8
// distance path promises to serve identically. SIFTLike is quantised
// ([0,160] integers), so the byte conversion is lossless.
func u8Fixture(t *testing.T, n int, seed int64, nEntry int) (f32 *Searcher, u8 *Searcher, queries *vec.Matrix) {
	t.Helper()
	all := dataset.SIFTLike(n, seed)
	data, queries := split(all, 40)
	dataU8, err := vec.U8FromMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 8, Xi: 20, Tau: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f32, err = NewSearcher(data, g, nEntry)
	if err != nil {
		t.Fatal(err)
	}
	u8, err = New(vec.RowsU8(dataU8), g, nEntry)
	if err != nil {
		t.Fatal(err)
	}
	return f32, u8, queries
}

// TestU8SearchParity pins the core uint8 guarantee: on byte data of
// SIFT-like dimensionality the integer path returns exactly the float
// path's results — ids, distances and work counters — because integer L2
// is exact and the float32 kernels stay inside their exactness window. The
// 128-entry searchers hold more entries than every ef tried, so the grouped
// entry scan runs too: both dtypes must group and prune identically.
func TestU8SearchParity(t *testing.T) {
	for _, nEntry := range []int{16, 128} {
		f32, u8, queries := u8Fixture(t, 900, 3, nEntry)
		for _, cfg := range []struct{ topK, ef int }{{1, 8}, {5, 32}, {10, 64}} {
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				rf, sf := f32.search(q, cfg.topK, cfg.ef, false, false)
				ru, su := u8.search(q, cfg.topK, cfg.ef, false, false)
				if sf != su {
					t.Fatalf("entries=%d topK=%d ef=%d query %d: stats diverge f32=%+v u8=%+v", nEntry, cfg.topK, cfg.ef, qi, sf, su)
				}
				if len(rf) != len(ru) {
					t.Fatalf("entries=%d topK=%d ef=%d query %d: %d vs %d results", nEntry, cfg.topK, cfg.ef, qi, len(rf), len(ru))
				}
				for i := range rf {
					if rf[i].ID != ru[i].ID || math.Float32bits(rf[i].Dist) != math.Float32bits(ru[i].Dist) {
						t.Fatalf("entries=%d topK=%d ef=%d query %d rank %d: f32=%+v u8=%+v", nEntry, cfg.topK, cfg.ef, qi, i, rf[i], ru[i])
					}
				}
			}
		}
	}
}

// TestU8SearchParityExhaustive repeats the parity check with early
// termination disabled, so the whole ef pool — not just the early-exit
// prefix — is proven identical.
func TestU8SearchParityExhaustive(t *testing.T) {
	f32, u8, queries := u8Fixture(t, 600, 5, 16)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		rf, sf := f32.search(q, 10, 40, true, false)
		ru, su := u8.search(q, 10, 40, true, false)
		if sf != su {
			t.Fatalf("query %d: stats diverge f32=%+v u8=%+v", qi, sf, su)
		}
		for i := range rf {
			if rf[i] != ru[i] {
				t.Fatalf("query %d rank %d: f32=%+v u8=%+v", qi, i, rf[i], ru[i])
			}
		}
	}
}

func TestU8SearcherRejectsNonByteQuery(t *testing.T) {
	_, u8, queries := u8Fixture(t, 300, 9, 16)
	q := append([]float32(nil), queries.Row(0)...)
	q[3] = 0.5
	defer func() {
		if recover() == nil {
			t.Fatal("non-byte query should panic on a uint8 searcher")
		}
	}()
	u8.Search(q, 1, 8)
}

func TestNewU8Errors(t *testing.T) {
	small := dataset.SIFTLike(5, 1)
	g, err := core.BuildGraph(small, core.GraphConfig{Kappa: 2, Xi: 4, Tau: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(vec.RowsU8(vec.NewU8Matrix(10, 4)), g, 4); err == nil {
		t.Fatal("node-count mismatch should error")
	}
}
