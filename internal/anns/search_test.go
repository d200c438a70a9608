package anns

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gkmeans/internal/core"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

// split separates one corpus into a reference set and a held-out query set
// drawn from the same distribution (how SIFT1M's query set is produced).
func split(m *vec.Matrix, nQueries int) (data, queries *vec.Matrix) {
	dataIdx := make([]int, 0, m.N-nQueries)
	queryIdx := make([]int, 0, nQueries)
	for i := 0; i < m.N; i++ {
		if i%(m.N/nQueries) == 0 && len(queryIdx) < nQueries {
			queryIdx = append(queryIdx, i)
		} else {
			dataIdx = append(dataIdx, i)
		}
	}
	return m.SubsetRows(dataIdx), m.SubsetRows(queryIdx)
}

func TestSearchOnExactGraphFindsTrueNeighbors(t *testing.T) {
	all := dataset.SIFTLike(650, 1)
	data, queries := split(all, 50)
	g := knngraph.BruteForce(data, 10, 0)
	s, err := NewSearcher(data, g, 32)
	if err != nil {
		t.Fatal(err)
	}
	truth := ExactTruth(data, queries, 1, 0)
	if r := RecallAt(s, queries, truth, 1, 32); r < 0.9 {
		t.Fatalf("recall@1 on exact graph %.3f, want >= 0.9", r)
	}
}

func TestSearchOnConstructedGraph(t *testing.T) {
	// §4.3: the Alg. 3 graph supports ANN search with good recall.
	all := dataset.SIFTLike(840, 2)
	data, queries := split(all, 40)
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 10, Xi: 25, Tau: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(data, g, 32)
	if err != nil {
		t.Fatal(err)
	}
	truth := ExactTruth(data, queries, 10, 0)
	if r := RecallAt(s, queries, truth, 10, 64); r < 0.8 {
		t.Fatalf("recall@10 %.3f, want >= 0.8", r)
	}
}

func TestSearchResultsSortedAndUnique(t *testing.T) {
	data := dataset.GloVeLike(300, 4)
	g := knngraph.BruteForce(data, 8, 0)
	s, _ := NewSearcher(data, g, 4)
	res := s.Search(data.Row(5), 10, 32)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	seen := map[int32]bool{}
	for i, nb := range res {
		if seen[nb.ID] {
			t.Fatalf("duplicate id %d", nb.ID)
		}
		seen[nb.ID] = true
		if i > 0 && res[i-1].Dist > nb.Dist {
			t.Fatal("results not sorted")
		}
	}
	// Query is a data point: its own id must be the top hit at distance 0.
	if res[0].ID != 5 || res[0].Dist != 0 {
		t.Fatalf("self query top hit %v", res[0])
	}
}

func TestSearchEfBelowTopKRaised(t *testing.T) {
	data := dataset.Uniform(100, 4, 5)
	g := knngraph.BruteForce(data, 5, 0)
	s, _ := NewSearcher(data, g, 4)
	res := s.Search(data.Row(0), 10, 1) // ef < topK
	if len(res) != 10 {
		t.Fatalf("ef raise failed: %d results", len(res))
	}
}

func TestSearchTopKZero(t *testing.T) {
	data := dataset.Uniform(20, 4, 6)
	g := knngraph.BruteForce(data, 3, 0)
	s, _ := NewSearcher(data, g, 2)
	if res := s.Search(data.Row(0), 0, 8); res != nil {
		t.Fatalf("topK=0 should return nil, got %v", res)
	}
}

func TestSearcherReusableAcrossQueries(t *testing.T) {
	data := dataset.Uniform(200, 6, 7)
	g := knngraph.BruteForce(data, 6, 0)
	s, _ := NewSearcher(data, g, 4)
	a1 := s.Search(data.Row(3), 5, 16)
	_ = s.Search(data.Row(9), 5, 16)
	a2 := s.Search(data.Row(3), 5, 16)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("repeated identical query returned different results")
		}
	}
}

func TestNewSearcherErrors(t *testing.T) {
	data := dataset.Uniform(10, 3, 8)
	g := knngraph.BruteForce(data, 3, 0)
	other := dataset.Uniform(5, 3, 9)
	if _, err := NewSearcher(other, g, 4); err == nil {
		t.Fatal("size mismatch should error")
	}
	if _, err := NewSearcher(&vec.Matrix{Dim: 3}, knngraph.New(0, 3), 4); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestExactTruth(t *testing.T) {
	data := vec.FromRows([][]float32{{0, 0}, {1, 0}, {5, 0}, {6, 0}})
	queries := vec.FromRows([][]float32{{0.1, 0}})
	truth := ExactTruth(data, queries, 2, 0)
	if truth[0][0] != 0 || truth[0][1] != 1 {
		t.Fatalf("truth %v", truth[0])
	}
}

func TestRecallAtEmptyQueries(t *testing.T) {
	data := dataset.Uniform(10, 2, 10)
	g := knngraph.BruteForce(data, 3, 0)
	s, _ := NewSearcher(data, g, 2)
	if r := RecallAt(s, &vec.Matrix{Dim: 2}, nil, 1, 8); r != 0 {
		t.Fatalf("empty query recall %v", r)
	}
}

// Regression: queries with an empty ground-truth list must be excluded from
// the denominator, not silently counted as recall-0 rows.
func TestRecallAtSkipsEmptyTruth(t *testing.T) {
	data := dataset.Uniform(50, 4, 11)
	g := knngraph.BruteForce(data, 8, 0)
	s, _ := NewSearcher(data, g, 8)
	queries := data.SubsetRows([]int{1, 7, 13, 21})
	truth := ExactTruth(data, queries, 3, 0)
	truth[1] = nil       // no ground truth for this query
	truth[3] = []int32{} // nor this one
	r := RecallAt(s, queries, truth, 3, 32)
	// Queries 0 and 2 are data points searched over an exact graph with a
	// generous pool: both find their full true top-3, so the average over
	// the two evaluated queries is 1. The old N-denominator reported 0.5.
	if r != 1 {
		t.Fatalf("recall with half-empty truth = %v, want 1 (empty lists excluded)", r)
	}
	if r := RecallAt(s, queries, [][]int32{nil, nil, nil, nil}, 3, 32); r != 0 {
		t.Fatalf("recall with all-empty truth = %v, want 0", r)
	}
}

// The early exit must bound search work versus the exhaust-the-pool
// baseline without costing measurable recall — the paper's §4.3 latency
// claim rests on it.
func TestEarlyTerminationBoundsWork(t *testing.T) {
	all := dataset.SIFTLike(840, 2)
	data, queries := split(all, 40)
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 10, Xi: 25, Tau: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(data, g, 32)
	if err != nil {
		t.Fatal(err)
	}
	const topK, ef = 10, 128
	truth := ExactTruth(data, queries, topK, 0)
	measure := func(exhaust bool) (recall float64, dist, expanded int) {
		var sum float64
		for qi := 0; qi < queries.N; qi++ {
			res, st := s.search(queries.Row(qi), topK, ef, exhaust, false)
			dist += st.Dist
			expanded += st.Expanded
			got := make(map[int32]bool, len(res))
			for _, nb := range res {
				got[nb.ID] = true
			}
			hit := 0
			for _, id := range truth[qi] {
				if got[id] {
					hit++
				}
			}
			sum += float64(hit) / float64(len(truth[qi]))
		}
		return sum / float64(queries.N), dist, expanded
	}
	baseRecall, baseDist, baseExp := measure(true)
	earlyRecall, earlyDist, earlyExp := measure(false)
	t.Logf("exhaust: recall=%.4f dist=%d expanded=%d | early: recall=%.4f dist=%d expanded=%d",
		baseRecall, baseDist, baseExp, earlyRecall, earlyDist, earlyExp)
	if earlyExp >= baseExp*6/10 {
		t.Fatalf("early exit expanded %d candidates, want well under the %d baseline", earlyExp, baseExp)
	}
	if earlyDist >= baseDist*8/10 {
		t.Fatalf("early exit computed %d distances, want well under the %d baseline", earlyDist, baseDist)
	}
	if diff := baseRecall - earlyRecall; diff > 0.01 {
		t.Fatalf("early exit costs %.4f recall@%d (%.4f -> %.4f), budget 0.01", diff, topK, baseRecall, earlyRecall)
	}
}

// Recall parity must hold on fvecs-loaded data too, not just on in-memory
// synthetic matrices — the path real corpora arrive through.
func TestEarlyTerminationParityOnFvecsData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.fvecs")
	if err := dataset.SaveFvecsFile(path, dataset.SIFTLike(600, 9)); err != nil {
		t.Fatal(err)
	}
	all, err := dataset.LoadFvecsFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, queries := split(all, 30)
	g := knngraph.BruteForce(data, 10, 0)
	s, err := NewSearcher(data, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	const topK, ef = 10, 64
	truth := ExactTruth(data, queries, topK, 0)
	recall := func(exhaust bool) float64 {
		var sum float64
		for qi := 0; qi < queries.N; qi++ {
			res, _ := s.search(queries.Row(qi), topK, ef, exhaust, false)
			got := make(map[int32]bool, len(res))
			for _, nb := range res {
				got[nb.ID] = true
			}
			hit := 0
			for _, id := range truth[qi] {
				if got[id] {
					hit++
				}
			}
			sum += float64(hit) / float64(len(truth[qi]))
		}
		return sum / float64(queries.N)
	}
	if diff := recall(true) - recall(false); diff > 0.01 {
		t.Fatalf("early exit costs %.4f recall@%d on fvecs data, budget 0.01", diff, topK)
	}
}

func TestSearchStatsCounters(t *testing.T) {
	data := dataset.SIFTLike(400, 5)
	g := knngraph.BruteForce(data, 8, 0)
	s, _ := NewSearcher(data, g, 8)
	res, st := s.search(data.Row(3), 5, 32, false, false)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if st.Dist <= 0 || st.Expanded <= 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	if st.Expanded > st.Dist {
		t.Fatalf("expanded %d candidates with only %d distance evaluations", st.Expanded, st.Dist)
	}
	_, st2 := s.search(data.Row(9), 5, 32, false, false)
	q, dist, exp := s.Totals()
	if q != 2 || dist != uint64(st.Dist+st2.Dist) || exp != uint64(st.Expanded+st2.Expanded) {
		t.Fatalf("totals (%d, %d, %d) do not accumulate per-query stats %+v %+v", q, dist, exp, st, st2)
	}
}

// The CSR layout must hold exactly the symmetrised adjacency: every graph
// edge in both directions, no duplicates, no self-loops.
func TestCSRMatchesSymmetrisedAdjacency(t *testing.T) {
	data := dataset.GloVeLike(300, 6)
	g := knngraph.BruteForce(data, 7, 0)
	s, err := NewSearcher(data, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Reference adjacency, built the straightforward way.
	want := make([]map[int32]bool, data.N)
	for i := range want {
		want[i] = make(map[int32]bool)
	}
	for i, list := range g.Lists {
		for _, nb := range list {
			want[i][nb.ID] = true
			want[nb.ID][int32(i)] = true
		}
	}
	edges := 0
	for i := 0; i < data.N; i++ {
		row := s.adjacency(int32(i))
		edges += len(row)
		seen := make(map[int32]bool, len(row))
		for _, id := range row {
			if id == int32(i) {
				t.Fatalf("node %d: CSR self-loop", i)
			}
			if seen[id] {
				t.Fatalf("node %d: duplicate CSR neighbour %d", i, id)
			}
			seen[id] = true
			if !want[i][id] {
				t.Fatalf("node %d: CSR neighbour %d not in symmetrised adjacency", i, id)
			}
		}
		if len(seen) != len(want[i]) {
			t.Fatalf("node %d: CSR has %d neighbours, want %d", i, len(seen), len(want[i]))
		}
	}
	if edges != s.Edges() {
		t.Fatalf("Edges() = %d, want %d", s.Edges(), edges)
	}
}

// scanCSR is the symmetrised adjacency built the direct way, one scan of
// the target's list per edge: each node's own list, then the reverse edges
// missing from it in ascending source order. buildCSR must match it exactly.
func scanCSR(g *knngraph.Graph) (offsets, neighbors []int32) {
	n := g.N()
	rows := make([][]int32, n)
	for i, list := range g.Lists {
		for _, nb := range list {
			rows[i] = append(rows[i], nb.ID)
		}
	}
	for i, list := range g.Lists {
		for _, nb := range list {
			if !g.Contains(int(nb.ID), int32(i)) {
				rows[nb.ID] = append(rows[nb.ID], int32(i))
			}
		}
	}
	offsets = make([]int32, n+1)
	for i, row := range rows {
		neighbors = append(neighbors, row...)
		offsets[i+1] = int32(len(neighbors))
	}
	return offsets, neighbors
}

// The CSR is the same offsets and neighbours, in the same order, as the
// per-edge scan on graphs of every kind: exact, random (few reverse edges
// already present), and built at several worker counts.
func TestCSRMatchesEdgeScan(t *testing.T) {
	data := dataset.SIFTLike(500, 8)
	graphs := map[string]*knngraph.Graph{
		"bruteforce": knngraph.BruteForce(data, 9, 0),
		"random":     knngraph.Random(data, 6, 3),
	}
	for _, workers := range []int{1, 2, 3} {
		g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 10, Xi: 25, Tau: 3, Seed: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("built-workers%d", workers)] = g
	}
	for name, g := range graphs {
		s, err := NewSearcher(data, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		offsets, neighbors := scanCSR(g)
		if !slices.Equal(s.offsets, offsets) || !slices.Equal(s.neighbors, neighbors) || s.Edges() != len(neighbors) {
			t.Fatalf("%s: CSR differs from the per-edge scan (%d edges, want %d)", name, s.Edges(), len(neighbors))
		}
	}
}

// BenchmarkNew times building a searcher — symmetrised CSR, components and
// entry groups — over a built 10,000-row graph (κ=20): the first query after
// a restart pays it once per segment.
func BenchmarkNew(b *testing.B) {
	data := dataset.SIFTLike(10000, 1)
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 20, Xi: 50, Tau: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSearcher(data, g, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// Entry points must be nEntry distinct, evenly spread ids whenever the
// dataset is large enough — a stride-and-modulo scheme could wrap and
// silently under-fill the set.
func TestEntryPointsDistinctAndCovering(t *testing.T) {
	for _, tc := range []struct{ n, nEntry int }{
		{10, 7}, {20, 16}, {100, 16}, {5, 16}, {97, 31}, {16, 16},
	} {
		data := dataset.Uniform(tc.n, 4, int64(tc.n))
		g := knngraph.BruteForce(data, 3, 0)
		s, err := NewSearcher(data, g, tc.nEntry)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.nEntry
		if want > tc.n {
			want = tc.n
		}
		if len(s.entry) < want {
			t.Fatalf("n=%d nEntry=%d: %d entry points, want >= %d", tc.n, tc.nEntry, len(s.entry), want)
		}
		seen := make(map[int32]bool, len(s.entry))
		for _, e := range s.entry {
			if seen[e] {
				t.Fatalf("n=%d nEntry=%d: duplicate entry point %d", tc.n, tc.nEntry, e)
			}
			seen[e] = true
			if int(e) < 0 || int(e) >= tc.n {
				t.Fatalf("n=%d nEntry=%d: entry point %d out of range", tc.n, tc.nEntry, e)
			}
		}
	}
}
