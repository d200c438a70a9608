package gkmeans

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
)

// buildTestIndex constructs a small deterministic index shared by several
// tests.
func buildTestIndex(t *testing.T, opts ...Option) (*Index, *Matrix) {
	t.Helper()
	all := dataset.SIFTLike(1040, 21)
	data, queries := Split(all, 40)
	opts = append([]Option{WithKappa(10), WithXi(25), WithTau(5), WithSeed(22)}, opts...)
	idx, err := Build(context.Background(), data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx, queries
}

func TestBuildProducesWorkingIndex(t *testing.T) {
	idx, queries := buildTestIndex(t)
	if idx.N() != 1000 || idx.Dim() != 128 {
		t.Fatalf("index shape %d×%d", idx.N(), idx.Dim())
	}
	if idx.Graph() == nil || idx.Graph().N() != idx.N() {
		t.Fatal("index graph missing or mis-sized")
	}
	if idx.GraphTime() <= 0 {
		t.Fatal("graph time not recorded")
	}
	if idx.Clusters() != nil {
		t.Fatal("no clustering requested, Clusters should be nil")
	}
	res := idx.Search(queries.Row(0), 5, 64)
	if len(res) != 5 {
		t.Fatalf("search returned %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatal("search results not sorted")
		}
	}
	// Self-query: a data point must find itself at distance 0.
	self := idx.Search(idx.Data().Row(7), 1, 32)
	if len(self) != 1 || self[0].ID != 7 || self[0].Dist != 0 {
		t.Fatalf("self query returned %v", self)
	}
}

func TestBuildWorkerCountInvariant(t *testing.T) {
	// WithWorkers trades wall-clock only: for both builders the same seed
	// yields the bit-identical graph at every worker count.
	data := dataset.SIFTLike(500, 31)
	for _, builder := range []string{BuilderGKMeans, BuilderNNDescent} {
		var ref *Graph
		for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
			idx, err := Build(context.Background(), data,
				WithKappa(8), WithXi(20), WithTau(3), WithSeed(5),
				WithWorkers(workers), WithGraphBuilder(builder))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", builder, workers, err)
			}
			g := idx.Graph()
			if ref == nil {
				ref = g
				continue
			}
			for i := range ref.Lists {
				if len(g.Lists[i]) != len(ref.Lists[i]) {
					t.Fatalf("%s workers=%d node %d list length differs", builder, workers, i)
				}
				for j := range ref.Lists[i] {
					if g.Lists[i][j] != ref.Lists[i][j] {
						t.Fatalf("%s workers=%d node %d entry %d differs", builder, workers, i, j)
					}
				}
			}
		}
	}
}

// Index.Cluster grows its 2M tree on the WithWorkers goroutines; labels,
// centroids and every count must be those of one worker, on byte-valued
// and real-valued corpora.
func TestClusterWorkerCountInvariant(t *testing.T) {
	for name, data := range map[string]*Matrix{"sift": dataset.SIFTLike(1200, 3), "glove": dataset.GloVeLike(1200, 3)} {
		idx, err := Build(context.Background(), data, WithKappa(10), WithXi(30), WithTau(3), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		var ref *Result
		for _, workers := range []int{1, 2, 3} {
			res, err := idx.Cluster(context.Background(), 120, WithMaxIter(5), WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !slices.Equal(res.Labels, ref.Labels) || !slices.Equal(res.Centroids.Data, ref.Centroids.Data) ||
				res.Iters != ref.Iters || res.AvgCandidates != ref.AvgCandidates {
				t.Fatalf("%s: Cluster at %d workers differs from one worker's", name, workers)
			}
		}
	}
}

func TestBuildNNDescentBuilderEndToEnd(t *testing.T) {
	all := dataset.SIFTLike(540, 17)
	data, queries := Split(all, 40)
	idx, err := Build(context.Background(), data,
		WithKappa(10), WithSeed(9), WithGraphBuilder(BuilderNNDescent))
	if err != nil {
		t.Fatal(err)
	}
	truth := ExactNeighbors(data, queries, 5)
	hits, total := 0, 0
	for qi := 0; qi < queries.N; qi++ {
		res := idx.Search(queries.Row(qi), 5, 64)
		got := map[int32]bool{}
		for _, nb := range res {
			got[nb.ID] = true
		}
		for _, id := range truth[qi] {
			total++
			if got[id] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(total); recall < 0.8 {
		t.Fatalf("KGraph-built index recall %.3f, want >= 0.8", recall)
	}
	if _, err := Build(context.Background(), data, WithGraphBuilder("nosuch")); err == nil {
		t.Fatal("unknown builder accepted")
	}
}

func TestConcurrentBuildsRace(t *testing.T) {
	// Hammer Build on separate Index values over a shared read-only
	// dataset — the determinism satellite's race test (CI runs it with
	// -race). Both builders participate.
	data := dataset.SIFTLike(400, 41)
	var wg sync.WaitGroup
	idxs := make([]*Index, 8)
	errs := make([]error, 8)
	for i := range idxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			builder := BuilderGKMeans
			if i%2 == 1 {
				builder = BuilderNNDescent
			}
			// (builder, seed) repeats with period 4, so idxs[i] and
			// idxs[i+4] run identical configurations concurrently.
			idxs[i], errs[i] = Build(context.Background(), data,
				WithKappa(6), WithXi(20), WithTau(3), WithSeed(int64((i%4)/2)),
				WithWorkers(2), WithGraphBuilder(builder))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		if got := idxs[i].Search(data.Row(3), 3, 32); len(got) != 3 {
			t.Fatalf("build %d produced a broken index", i)
		}
	}
	// Same (builder, seed) pairs must agree even when built concurrently.
	for i := 4; i < 8; i++ {
		a, b := idxs[i-4].Graph(), idxs[i].Graph()
		for v := range a.Lists {
			for j := range a.Lists[v] {
				if a.Lists[v][j] != b.Lists[v][j] {
					t.Fatalf("concurrent same-seed builds %d and %d diverged", i-4, i)
				}
			}
		}
	}
}

func TestBuildWithClusters(t *testing.T) {
	data := dataset.GloVeLike(600, 23)
	idx, err := Build(context.Background(), data,
		WithKappa(8), WithXi(20), WithTau(4), WithSeed(24), WithMaxIter(15), WithClusters(12))
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Clusters()
	if res == nil {
		t.Fatal("WithClusters should populate Clusters")
	}
	if res.K != 12 {
		t.Fatalf("K=%d, want 12", res.K)
	}
	if err := res.Validate(data); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTimeClusteringMatchesIndexCluster(t *testing.T) {
	// WithClusters is Index.Cluster run inside Build; same inputs must
	// give byte-identical clusterings either way.
	data := dataset.SIFTLike(800, 25)
	opts := []Option{WithKappa(10), WithXi(25), WithTau(4), WithMaxIter(15), WithSeed(26)}
	atBuild, err := Build(context.Background(), data, append(opts, WithClusters(20))...)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(context.Background(), data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	later, err := idx.Cluster(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	want := atBuild.Clusters()
	for i := range want.Labels {
		if want.Labels[i] != later.Labels[i] {
			t.Fatalf("label %d differs: at Build %d, Index.Cluster %d", i, want.Labels[i], later.Labels[i])
		}
	}
	if !want.Centroids.Equal(later.Centroids) {
		t.Fatal("centroids differ between WithClusters and Index.Cluster")
	}
}

func TestIndexConcurrentSearchRace(t *testing.T) {
	// Hammer one Index from many goroutines mixing Search, SearchBatch and
	// Cluster. Run under -race this is the concurrency acceptance test; the
	// assertions double-check that concurrent use returns the same results
	// as serial use.
	idx, queries := buildTestIndex(t)
	want := make([][]Neighbor, queries.N)
	for qi := 0; qi < queries.N; qi++ {
		want[qi] = idx.Search(queries.Row(qi), 5, 64)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // single searches
				for rep := 0; rep < 3; rep++ {
					for qi := 0; qi < queries.N; qi++ {
						got := idx.Search(queries.Row(qi), 5, 64)
						for j := range got {
							if got[j] != want[qi][j] {
								errc <- errors.New("concurrent Search diverged from serial result")
								return
							}
						}
					}
				}
			case 1: // batch searches
				for rep := 0; rep < 3; rep++ {
					batch := idx.SearchBatch(queries, 5, 64)
					for qi := range batch {
						for j := range batch[qi] {
							if batch[qi][j] != want[qi][j] {
								errc <- errors.New("concurrent SearchBatch diverged from serial result")
								return
							}
						}
					}
				}
			case 2: // concurrent clustering on the same index
				if _, err := idx.Cluster(context.Background(), 15, WithMaxIter(5)); err != nil {
					errc <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	data := dataset.GloVeLike(700, 27)
	queries := dataset.GloVeLike(30, 28)
	idx, err := Build(context.Background(), data,
		WithKappa(8), WithXi(20), WithTau(4), WithSeed(29),
		WithMaxIter(10), WithClusters(10), WithEntryPoints(24))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "test.gkx")
	if err := SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}

	if !loaded.Data().Equal(idx.Data()) {
		t.Fatal("dataset did not survive the round trip")
	}
	if loaded.Graph().N() != idx.Graph().N() || loaded.Graph().Kappa != idx.Graph().Kappa {
		t.Fatal("graph shape did not survive the round trip")
	}
	for i, list := range idx.Graph().Lists {
		got := loaded.Graph().Lists[i]
		if len(got) != len(list) {
			t.Fatalf("node %d list length differs", i)
		}
		for j := range list {
			if got[j] != list[j] {
				t.Fatalf("node %d neighbour %d differs", i, j)
			}
		}
	}

	// The clustering section round-trips.
	if loaded.Clusters() == nil {
		t.Fatal("clustering lost in round trip")
	}
	if loaded.Clusters().K != idx.Clusters().K {
		t.Fatal("cluster count lost in round trip")
	}
	for i := range idx.Clusters().Labels {
		if loaded.Clusters().Labels[i] != idx.Clusters().Labels[i] {
			t.Fatalf("label %d lost in round trip", i)
		}
	}
	if !loaded.Clusters().Centroids.Equal(idx.Clusters().Centroids) {
		t.Fatal("centroids lost in round trip")
	}

	// The acceptance criterion: searches on the loaded index return exactly
	// the results of the saved one.
	for qi := 0; qi < queries.N; qi++ {
		a := idx.Search(queries.Row(qi), 10, 64)
		b := loaded.Search(queries.Row(qi), 10, 64)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d result %d differs after round trip: %v vs %v", qi, j, a[j], b[j])
			}
		}
	}
}

func TestIndexWriteToReadFromStream(t *testing.T) {
	// WriteTo/ReadIndexFrom must work mid-stream: surround the index with
	// unrelated bytes and check nothing before or after is disturbed.
	idx, _ := buildTestIndex(t)
	var buf bytes.Buffer
	buf.WriteString("prefix")
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()-len("prefix")) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len()-len("prefix"))
	}
	buf.WriteString("suffix")

	r := bytes.NewReader(buf.Bytes())
	pre := make([]byte, len("prefix"))
	if _, err := r.Read(pre); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(r)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != idx.N() {
		t.Fatal("stream round trip lost samples")
	}
	rest := make([]byte, 16)
	m, _ := r.Read(rest)
	if string(rest[:m]) != "suffix" {
		t.Fatalf("reader position wrong after ReadIndexFrom: %q", rest[:m])
	}
}

func TestReadIndexFromRejectsCorruptHeader(t *testing.T) {
	mustRejectGkx(t, "garbage", []byte("not an index at all"), "bad index magic")
	idx, _ := buildTestIndex(t)
	blob := gkxBlob(t, idx)
	v1 := gkxFixture(t, "v1-mono-clustered")
	for name, b := range map[string][]byte{"v7": blob, "v1": v1} {
		mustRejectPatches(t, b, []gkxPatch{
			// A version past the current one names the likely cause; 0 never
			// existed. Both list what this release reads.
			{name + " version 99", func(b []byte) { b[4] = 99 }, "unsupported index version 99: written by a newer release (this one reads versions 1 to 7)"},
			{name + " version 8", func(b []byte) { b[4] = 8 }, "written by a newer release"},
			{name + " version 0", func(b []byte) { b[4] = 0 }, "unsupported index version 0 (want 1 to 7)"},
			{name + " magic", func(b []byte) { b[3] ^= 0x20 }, "bad index magic"},
		})
	}
	// Every strict prefix of the v7 header fails as a header: its first
	// 28 bytes, then its build options.
	for cut := 0; cut < gkxHdrEnd; cut++ {
		want := "reading index header"
		if cut >= gkxOptsOff {
			want = "reading build options"
		}
		mustRejectGkx(t, fmt.Sprintf("header cut at %d", cut), blob[:cut], want)
	}
}

func TestBuildCancellation(t *testing.T) {
	data := dataset.SIFTLike(500, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Build must abort before doing real work
	if _, err := Build(ctx, data, WithKappa(8), WithTau(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Build returned %v, want context.Canceled", err)
	}
}

func TestClusterCancellation(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.Cluster(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Cluster returned %v, want context.Canceled", err)
	}
}

func TestProgressCallback(t *testing.T) {
	data := dataset.Uniform(400, 8, 33)
	var mu sync.Mutex
	counts := map[string]int{}
	var lastTotal map[string]int
	lastTotal = map[string]int{}
	_, err := Build(context.Background(), data,
		WithKappa(6), WithXi(20), WithTau(4), WithMaxIter(8), WithClusters(10),
		WithProgress(func(stage string, done, total int) {
			mu.Lock()
			counts[stage]++
			lastTotal[stage] = total
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if counts["graph"] != 4 || lastTotal["graph"] != 4 {
		t.Fatalf("graph progress: %d calls, total %d; want 4/4", counts["graph"], lastTotal["graph"])
	}
	if counts["cluster"] == 0 || lastTotal["cluster"] != 8 {
		t.Fatalf("cluster progress: %d calls, total %d; want >0 calls with total 8",
			counts["cluster"], lastTotal["cluster"])
	}
}

func TestNewIndexErrors(t *testing.T) {
	data := dataset.Uniform(50, 4, 35)
	built, err := Build(context.Background(), data, WithKappa(5), WithXi(15), WithTau(2), WithSeed(36))
	if err != nil {
		t.Fatal(err)
	}
	g := built.Graph()
	if _, err := NewIndex(nil, g); err == nil {
		t.Fatal("nil data should error")
	}
	if _, err := NewIndex(data, nil); err == nil {
		t.Fatal("nil graph should error")
	}
	other := dataset.Uniform(20, 4, 37)
	if _, err := NewIndex(other, g); err == nil {
		t.Fatal("size mismatch should error")
	}
	if _, err := Build(context.Background(), nil); err == nil {
		t.Fatal("Build with nil data should error")
	}
	// A graph with an out-of-range neighbour id must be rejected at
	// construction, not panic inside the first search.
	bad := knngraph.New(data.N, 3)
	bad.Insert(0, int32(data.N+5), 1)
	if _, err := NewIndex(data, bad); err == nil {
		t.Fatal("malformed graph should error")
	}
}

func TestIndexSearchDefaultEf(t *testing.T) {
	idx, queries := buildTestIndex(t)
	res := idx.Search(queries.Row(0), 5, 0) // ef <= 0 picks a sane default
	if len(res) != 5 {
		t.Fatalf("default-ef search returned %d results", len(res))
	}
	batch := idx.SearchBatch(queries, 3, 0)
	if len(batch) != queries.N {
		t.Fatalf("default-ef batch returned %d lists", len(batch))
	}
}
