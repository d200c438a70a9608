package gkmeans

import (
	"context"
	"path/filepath"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/metrics"
)

// clusterPipeline is the paper's whole pipeline through the Index API:
// build the graph, cluster over it, report the graph time in the result.
func clusterPipeline(data *Matrix, k int, opts ...Option) (*Result, error) {
	idx, err := Build(context.Background(), data, opts...)
	if err != nil {
		return nil, err
	}
	res, err := idx.Cluster(context.Background(), k)
	if err != nil {
		return nil, err
	}
	res.GraphTime = idx.GraphTime()
	return res, nil
}

func TestClusterEndToEnd(t *testing.T) {
	data := dataset.SIFTLike(1000, 1)
	res, err := clusterPipeline(data, 40, WithKappa(10), WithXi(25), WithTau(5), WithMaxIter(20), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(data); err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil {
		t.Fatal("pipeline result must carry the graph")
	}
	if res.GraphTime <= 0 || res.IterTime <= 0 {
		t.Fatal("timings not recorded")
	}
	if res.AvgCandidates <= 0 || res.AvgCandidates > 10 {
		t.Fatalf("avg candidates %.2f outside (0, kappa]", res.AvgCandidates)
	}
	if res.Distortion(data) <= 0 {
		t.Fatal("distortion should be positive on noisy data")
	}
}

func TestClusterWithGraphReuse(t *testing.T) {
	data := dataset.GloVeLike(500, 3)
	built, err := Build(context.Background(), data, WithKappa(8), WithXi(20), WithTau(4), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	// Same graph, wrapped anew, at two different k values.
	for _, k := range []int{10, 25} {
		idx, err := NewIndex(data, built.Graph(), WithMaxIter(15), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := idx.Cluster(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(data); err != nil {
			t.Fatal(err)
		}
		if res.K != k {
			t.Fatalf("K=%d, want %d", res.K, k)
		}
	}
}

func TestBoostKMeansQualityYardstick(t *testing.T) {
	data := dataset.SIFTLike(800, 6)
	k := 20
	gk, err := clusterPipeline(data, k, WithKappa(10), WithXi(25), WithTau(5), WithMaxIter(20), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	bk, err := BoostKMeans(data, k, WithMaxIter(20), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	eG, eB := gk.Distortion(data), bk.Distortion(data)
	if eG > eB*1.10 {
		t.Fatalf("GK-means %.2f more than 10%% above BKM %.2f", eG, eB)
	}
}

func TestTraditionalOption(t *testing.T) {
	data := dataset.Uniform(400, 8, 8)
	res, err := clusterPipeline(data, 16, WithKappa(8), WithXi(20), WithTau(3), WithMaxIter(10), WithSeed(9), WithTraditional())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(data); err != nil {
		t.Fatal(err)
	}
}

func TestTraceOption(t *testing.T) {
	data := dataset.Uniform(300, 6, 10)
	res, err := clusterPipeline(data, 12, WithKappa(6), WithXi(20), WithTau(3), WithMaxIter(8), WithSeed(11), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("trace requested but history empty")
	}
	if res.History[0].Iter != 1 {
		t.Fatal("history numbering wrong")
	}
}

func TestSearcherOverClusterGraph(t *testing.T) {
	data := dataset.SIFTLike(600, 12)
	res, err := clusterPipeline(data, 20, WithKappa(10), WithXi(25), WithTau(6), WithMaxIter(10), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(data, res.Graph, WithEntryPoints(32))
	if err != nil {
		t.Fatal(err)
	}
	hits := idx.Search(data.Row(7), 5, 32)
	if len(hits) != 5 || hits[0].ID != 7 || hits[0].Dist != 0 {
		t.Fatalf("self query failed: %v", hits)
	}
	truth := ExactNeighbors(data, data.SubsetRows([]int{3, 50, 99}), 1)
	if len(truth) != 3 || len(truth[0]) != 1 {
		t.Fatalf("ExactNeighbors shape wrong: %v", truth)
	}
}

func TestFvecsRoundTripFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.fvecs")
	m := dataset.GloVeLike(30, 14)
	if err := SaveFvecs(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFvecs(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("round trip mismatch")
	}
}

func TestDistortionHelper(t *testing.T) {
	data := FromRows([][]float32{{0, 0}, {0, 2}, {10, 0}, {10, 2}})
	labels := []int{0, 0, 1, 1}
	if d := Distortion(data, labels, 2); d != 1 {
		t.Fatalf("distortion %v, want 1", d)
	}
}

func TestSearchBatchFacade(t *testing.T) {
	all := dataset.SIFTLike(520, 17)
	data, queries := Split(all, 20)
	if data.N != 500 || queries.N != 20 {
		t.Fatalf("split %d/%d", data.N, queries.N)
	}
	idx, err := Build(context.Background(), data,
		WithKappa(10), WithXi(25), WithTau(5), WithSeed(18), WithEntryPoints(32), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	batch := idx.SearchBatch(queries, 3, 32)
	if len(batch) != 20 {
		t.Fatalf("batch results %d", len(batch))
	}
	for qi, res := range batch {
		if len(res) != 3 {
			t.Fatalf("query %d returned %d results", qi, len(res))
		}
	}
}

func TestPipelineRecoversLatentStructure(t *testing.T) {
	// End-to-end quality check with an external measure: clustering mixture
	// data at k = number of latent components should score high NMI.
	data, truth := dataset.GMM(dataset.GMMConfig{
		N: 2000, Dim: 32, Components: 20, Spread: 6, Noise: 1.5, Seed: 19,
	})
	res, err := clusterPipeline(data, 20, WithKappa(10), WithXi(30), WithTau(5), WithMaxIter(25), WithSeed(20))
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := metrics.NMI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.85 {
		t.Fatalf("NMI %.3f too low — pipeline failed to recover latent clusters", nmi)
	}
}

func TestClusterErrorsSurface(t *testing.T) {
	data := dataset.Uniform(20, 4, 15)
	if _, err := clusterPipeline(data, 0, WithTau(1)); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := clusterPipeline(data, 21, WithTau(1)); err == nil {
		t.Fatal("k>n should error")
	}
	if _, err := BoostKMeans(data, 0); err == nil {
		t.Fatal("BoostKMeans k=0 should error")
	}
}

func TestValidateCatchesCorruptResult(t *testing.T) {
	data := dataset.Uniform(10, 2, 16)
	res := &Result{Labels: make([]int, 10), K: 2, Centroids: NewMatrix(2, 2)}
	if err := res.Validate(data); err != nil {
		t.Fatal(err)
	}
	res.Labels[0] = 9
	if err := res.Validate(data); err == nil {
		t.Fatal("bad label should fail validation")
	}
	res.Labels[0] = 0

	res2 := &Result{Labels: make([]int, 3), K: 1, Centroids: NewMatrix(1, 2)}
	if err := res2.Validate(data); err == nil {
		t.Fatal("length mismatch should fail validation")
	}

	// The extended checks: nil labels, nil centroids, centroid shape.
	if err := (&Result{K: 2, Centroids: NewMatrix(2, 2)}).Validate(data); err == nil {
		t.Fatal("nil labels should fail validation")
	}
	if err := (&Result{Labels: make([]int, 10), K: 2}).Validate(data); err == nil {
		t.Fatal("nil centroids should fail validation")
	}
	res.Centroids = NewMatrix(3, 2) // wrong row count for K=2
	if err := res.Validate(data); err == nil {
		t.Fatal("centroid row mismatch should fail validation")
	}
	res.Centroids = NewMatrix(2, 5) // wrong dimensionality
	if err := res.Validate(data); err == nil {
		t.Fatal("centroid dimensionality mismatch should fail validation")
	}
	res.Centroids = NewMatrix(2, 2)
	if err := res.Validate(data); err != nil {
		t.Fatalf("repaired result should validate: %v", err)
	}
}
