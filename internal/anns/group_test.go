package anns

import (
	"math"
	"sync"
	"testing"

	"gkmeans/internal/core"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

// groupedFixture is a SIFT-like corpus with held-out queries, its Alg. 3
// graph and a searcher over nEntry entry points.
func groupedFixture(tb testing.TB, n, nEntry int) (*Searcher, *vec.Matrix) {
	tb.Helper()
	data, queries := split(dataset.SIFTLike(n, 25), 100)
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 10, Xi: 25, Tau: 6, Seed: 25})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSearcher(data, g, nEntry)
	if err != nil {
		tb.Fatal(err)
	}
	return s, queries
}

// TestGroupedSeedingMatchesFlatScan pins the claim of the grouped entry
// scan against the flat one it replaces: with more entries than ef it keeps
// recall and the expansion count while computing far fewer distances, and
// with ef or fewer entries it is the flat scan, bit for bit. The distance
// bound holds over the ef sweep: per ef the ratio reads ≈0.49 / 0.58 / 0.72,
// because at ef 128 a quarter of the entries fill the pool before any group
// can be skipped.
func TestGroupedSeedingMatchesFlatScan(t *testing.T) {
	s, queries := groupedFixture(t, 3100, 512)
	truth := ExactTruth(s.rows.F32(), queries, 10, 0)
	var flatDist, groupedDist int
	for _, ef := range []int{32, 64, 128} {
		measure := func(flat bool) (recall float64, work Stats) {
			recall = RecallAtFunc(func(q []float32, k, ef int) []knngraph.Neighbor {
				res, st := s.search(q, k, ef, false, flat)
				work.Dist += st.Dist
				work.Expanded += st.Expanded
				return res
			}, queries, truth, 10, ef)
			return recall, work
		}
		flatRecall, flat := measure(true)
		groupedRecall, grouped := measure(false)
		t.Logf("ef %d: flat recall %.4f %+v, grouped recall %.4f %+v", ef, flatRecall, flat, groupedRecall, grouped)
		if flatRecall-groupedRecall > 0.002 {
			t.Errorf("ef %d: grouped recall@10 %.4f, flat %.4f: more than 0.002 lost", ef, groupedRecall, flatRecall)
		}
		if d := math.Abs(float64(grouped.Expanded-flat.Expanded)) / float64(flat.Expanded); d > 0.05 {
			t.Errorf("ef %d: grouped seeding expanded %d candidates, flat %d: off by more than 5%%", ef, grouped.Expanded, flat.Expanded)
		}
		flatDist += flat.Dist
		groupedDist += grouped.Dist
	}
	if float64(groupedDist) > 0.7*float64(flatDist) {
		t.Errorf("grouped seeding computed %d distances over the ef sweep, want <= 0.7 x the flat %d", groupedDist, flatDist)
	}

	// With |E| <= ef the grouped path is the flat scan.
	small, err := NewSearcher(s.rows.F32(), s.g, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.entry) > 64 {
		t.Fatalf("%d entries; the fixture must leave |E| <= ef", len(small.entry))
	}
	for qi := 0; qi < queries.N; qi++ {
		rf, sf := small.search(queries.Row(qi), 10, 64, false, true)
		rg, sg := small.search(queries.Row(qi), 10, 64, false, false)
		if sf != sg || len(rf) != len(rg) {
			t.Fatalf("query %d: |E| <= ef stats %+v vs flat %+v", qi, sg, sf)
		}
		for i := range rf {
			if rf[i].ID != rg[i].ID || math.Float32bits(rf[i].Dist) != math.Float32bits(rg[i].Dist) {
				t.Fatalf("query %d rank %d: %+v vs flat %+v", qi, i, rg[i], rf[i])
			}
		}
	}
}

// The groups are a pure function of the dataset and the entry count, and
// they partition the entry set.
func TestEntryGroupsDeterministic(t *testing.T) {
	data := dataset.SIFTLike(700, 13)
	g := knngraph.BruteForce(data, 8, 0)
	a, err := NewSearcher(data, g, 150)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSearcher(data, g, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.groups) != (len(a.entry)+entriesPerGroup-1)/entriesPerGroup {
		t.Fatalf("%d groups for %d entries", len(a.groups), len(a.entry))
	}
	for i := range a.groups {
		if a.groups[i] != b.groups[i] {
			t.Fatalf("group %d: %+v vs %+v", i, a.groups[i], b.groups[i])
		}
	}
	if !a.cents.Equal(b.cents) {
		t.Fatal("group centroids differ between two builds")
	}
	member := make(map[int32]bool, len(a.grouped))
	for i, e := range a.grouped {
		if e != b.grouped[i] {
			t.Fatalf("grouped entry %d: %d vs %d", i, e, b.grouped[i])
		}
		member[e] = true
	}
	if len(a.grouped) != len(a.entry) || len(member) != len(a.entry) {
		t.Fatalf("%d grouped (%d distinct) for %d entries", len(a.grouped), len(member), len(a.entry))
	}
	for _, e := range a.entry {
		if !member[e] {
			t.Fatalf("entry %d in no group", e)
		}
	}
}

// byteTwin is a searcher over the byte narrowing of s's rows and the same
// graph and entry count.
func byteTwin(tb testing.TB, s *Searcher) *Searcher {
	tb.Helper()
	u8, err := vec.U8FromMatrix(s.rows.F32())
	if err != nil {
		tb.Fatal(err)
	}
	b, err := New(vec.RowsU8(u8), s.g, len(s.entry))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Concurrent grouped searches share one searcher, over float32 rows or
// over bytes; each must answer as it does alone. Run under -race this also
// proves the per-query group ranking and the readied query live in
// per-goroutine scratch.
func TestConcurrentGroupedSearch(t *testing.T) {
	data := dataset.SIFTLike(800, 17)
	g := knngraph.BruteForce(data, 8, 0)
	f32, err := NewSearcher(data, g, 128)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.SIFTLike(32, 71)
	for _, s := range []*Searcher{f32, byteTwin(t, f32)} {
		want := make([][]knngraph.Neighbor, queries.N)
		for qi := range want {
			want[qi] = s.Search(queries.Row(qi), 10, 32)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					for qi := w; qi < queries.N; qi++ {
						got := s.Search(queries.Row(qi), 10, 32)
						for i := range want[qi] {
							if got[i] != want[qi][i] {
								errs <- "concurrent search diverged from the sequential answer"
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// BenchmarkSearchEntries times one query at the benchmark's monolithic
// operating point (512 entries, ef 64) with the flat entry scan and with
// the grouped one, and the grouped one over the same rows as bytes — the
// one timing of the integer search loop outside the serving benchmark.
func BenchmarkSearchEntries(b *testing.B) {
	s, queries := groupedFixture(b, 12100, 512)
	u8 := byteTwin(b, s)
	for _, bc := range []struct {
		name string
		s    *Searcher
		flat bool
	}{{"flat", s, true}, {"grouped", s, false}, {"grouped-uint8", u8, false}} {
		b.Run(bc.name, func(b *testing.B) {
			var dist int
			for i := 0; i < b.N; i++ {
				_, st := bc.s.search(queries.Row(i%queries.N), 10, 64, false, bc.flat)
				dist += st.Dist
			}
			b.ReportMetric(float64(dist)/float64(b.N), "dist/op")
		})
	}
}
