package knngraph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

func TestInsertSortedBounded(t *testing.T) {
	g := New(10, 3)
	if !g.Insert(0, 5, 2.0) || !g.Insert(0, 6, 1.0) || !g.Insert(0, 7, 3.0) {
		t.Fatal("initial inserts should succeed")
	}
	// Full list: a farther candidate is rejected.
	if g.Insert(0, 8, 4.0) {
		t.Fatal("should reject candidate beyond current worst when full")
	}
	// A closer candidate evicts the worst.
	if !g.Insert(0, 9, 0.5) {
		t.Fatal("closer candidate should be inserted")
	}
	want := []int32{9, 6, 5}
	for i, id := range want {
		if g.Lists[0][i].ID != id {
			t.Fatalf("list order %v, want ids %v", g.Lists[0], want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsDuplicatesAndSelf(t *testing.T) {
	g := New(2, 4)
	g.Insert(0, 1, 1.0)
	if g.Insert(0, 1, 0.5) {
		t.Fatal("duplicate id must be rejected")
	}
	if len(g.Lists[0]) != 1 {
		t.Fatalf("list grew on duplicate: %v", g.Lists[0])
	}
	if g.Insert(0, 0, 0.0) {
		t.Fatal("self edge must be rejected")
	}
}

func TestInsertDuplicateBeyondInsertionPoint(t *testing.T) {
	g := New(10, 4)
	g.Insert(0, 5, 3.0)
	g.Insert(0, 6, 4.0)
	// id 6 already present with larger distance; offering it again closer
	// must not create a duplicate.
	if g.Insert(0, 6, 1.0) {
		t.Fatal("existing id offered again must be rejected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	g := New(1, 2)
	g.Insert(0, 3, 1)
	if !g.Contains(0, 3) || g.Contains(0, 4) {
		t.Fatal("Contains wrong")
	}
}

// Property: after arbitrary insert sequences every invariant holds.
func TestInsertInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n, 1+rng.Intn(8))
		for op := 0; op < 300; op++ {
			g.Insert(rng.Intn(n), int32(rng.Intn(n)), rng.Float32()*10)
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertAbsentMatchesInsert: offered ids that are absent, InsertAbsent
// leaves every list exactly as Insert does — ties and equal-to-tail offers
// included — and reports the tail a full list gave up.
func TestInsertAbsentMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		kappa := 1 + rng.Intn(8)
		want, got := New(n, kappa), New(n, kappa)
		for op := 0; op < 400; op++ {
			i, id := rng.Intn(n), int32(rng.Intn(n))
			if int(id) == i || got.Contains(i, id) {
				continue
			}
			dist := float32(rng.Intn(6)) // few levels, so ties are common
			list := got.Lists[i]
			tail := int32(-1)
			if len(list) == got.Kappa {
				tail = list[len(list)-1].ID
			}
			ok, evicted := got.InsertAbsent(i, id, dist)
			if wantOK := want.Insert(i, id, dist); ok != wantOK {
				t.Fatalf("trial %d: InsertAbsent(%d, %d, %v) = %v, Insert = %v", trial, i, id, dist, ok, wantOK)
			}
			if !ok {
				tail = -1
			}
			if evicted != tail {
				t.Fatalf("trial %d: evicted %d, want %d", trial, evicted, tail)
			}
			if !slices.Equal(got.Lists[i], want.Lists[i]) {
				t.Fatalf("trial %d node %d: %v, Insert made %v", trial, i, got.Lists[i], want.Lists[i])
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBruteForceIsExact(t *testing.T) {
	data := dataset.Uniform(60, 8, 3)
	g := BruteForce(data, 5, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Verify node 0 against a naive full sort.
	type pair struct {
		id int
		d  float32
	}
	var all []pair
	for j := 1; j < data.N; j++ {
		all = append(all, pair{j, vec.L2Sqr(data.Row(0), data.Row(j))})
	}
	for i := 0; i < 5; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].d < all[best].d {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		if g.Lists[0][i].ID != int32(all[i].id) {
			t.Fatalf("rank %d: got %d want %d", i, g.Lists[0][i].ID, all[i].id)
		}
	}
}

func TestBruteForceSelfRecallIsOne(t *testing.T) {
	data := dataset.SIFTLike(80, 4)
	g := BruteForce(data, 4, 0)
	if r := g.Recall(g); r != 1 {
		t.Fatalf("exact graph recall against itself = %v", r)
	}
}

func TestRandomGraph(t *testing.T) {
	data := dataset.Uniform(50, 6, 7)
	g := Random(data, 10, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, list := range g.Lists {
		if len(list) != 10 {
			t.Fatalf("node %d has %d neighbours, want 10", i, len(list))
		}
	}
	// Distances must be the true distances.
	nb := g.Lists[3][0]
	if got := vec.L2Sqr(data.Row(3), data.Row(int(nb.ID))); got != nb.Dist {
		t.Fatalf("stored distance %v, true %v", nb.Dist, got)
	}
	// Random graph recall should be far below exact.
	exact := BruteForce(data, 10, 0)
	if r := g.Recall(exact); r > 0.9 {
		t.Fatalf("random graph suspiciously good: recall %v", r)
	}
}

func TestRandomKappaClamped(t *testing.T) {
	data := dataset.Uniform(5, 3, 1)
	g := Random(data, 100, 1)
	if g.Kappa != 4 {
		t.Fatalf("kappa should clamp to n-1, got %d", g.Kappa)
	}
}

func TestRandomWorkerCountInvariant(t *testing.T) {
	// Per-node streams make the random initial graph identical for every
	// worker count — the property Alg. 3 builds inherit.
	data := dataset.Uniform(200, 8, 5)
	ref, refComps := RandomN(data, 7, 3, 1)
	if refComps < int64(200*7) {
		t.Fatalf("comps %d below the n·κ floor", refComps)
	}
	for _, workers := range []int{2, 4, 9} {
		g, comps := RandomN(data, 7, 3, workers)
		if comps != refComps {
			t.Fatalf("workers=%d comps %d vs %d", workers, comps, refComps)
		}
		for i := range ref.Lists {
			if len(g.Lists[i]) != len(ref.Lists[i]) {
				t.Fatalf("workers=%d node %d length differs", workers, i)
			}
			for j := range ref.Lists[i] {
				if g.Lists[i][j] != ref.Lists[i][j] {
					t.Fatalf("workers=%d node %d entry %d differs", workers, i, j)
				}
			}
		}
	}
}

func TestRecallSampled(t *testing.T) {
	data := dataset.Uniform(40, 4, 2)
	exact := BruteForce(data, 3, 0)
	if r := exact.RecallSampled(exact, []int{0, 1, 2}); r != 1 {
		t.Fatalf("sampled self recall %v", r)
	}
	empty := New(40, 3)
	if r := empty.Recall(exact); r != 0 {
		t.Fatalf("empty graph recall %v", r)
	}
}

func TestRecallPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 2).Recall(New(4, 2))
}

func TestSerializationRoundTrip(t *testing.T) {
	data := dataset.GloVeLike(30, 5)
	g := BruteForce(data, 6, 0)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kappa != g.Kappa || got.N() != g.N() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range g.Lists {
		if len(got.Lists[i]) != len(g.Lists[i]) {
			t.Fatalf("node %d length mismatch", i)
		}
		for j := range g.Lists[i] {
			if got.Lists[i][j] != g.Lists[i][j] {
				t.Fatalf("node %d entry %d mismatch", i, j)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("expected error for truncated header")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 12))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.knn")
	data := dataset.Uniform(20, 4, 9)
	g := BruteForce(data, 3, 0)
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 20 {
		t.Fatalf("loaded %d nodes", got.N())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 0)
}
