package core

// Failure-injection tests: GK-means must behave sanely when the supporting
// graph is degenerate, adversarial or low quality — the graph is an
// *approximation*, so the clustering must never rely on its correctness for
// structural validity, only for quality.

import (
	"math/rand"
	"runtime"
	"testing"

	"gkmeans/internal/bkm"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/metrics"
)

func TestClusterWithEmptyGraphListsStillValid(t *testing.T) {
	// A graph with empty lists gives every sample an empty candidate set:
	// no moves can happen, but the result must still be a valid k-way
	// partition (the 2M-tree initialisation).
	data := dataset.Uniform(200, 6, 1)
	g := knngraph.New(200, 5) // all lists empty
	res, err := Cluster(data, g, Config{K: 10, MaxIter: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(data.N); err != nil {
		t.Fatal(err)
	}
	if res.AvgCandidates != 0 {
		t.Fatalf("empty graph should yield 0 candidates, got %v", res.AvgCandidates)
	}
	sizes := metrics.ClusterSizes(res.Labels, 10)
	if metrics.NonEmpty(sizes) != 10 {
		t.Fatalf("partition broken: %v", sizes)
	}
}

// A graph's κ only caps its lists; a loaded graph may state one far above
// any list it holds. Clustering must size its scratch by what the lists
// and k can produce, not by that κ.
func TestClusterWithLyingKappaAllocatesByLists(t *testing.T) {
	data := dataset.Uniform(200, 6, 1)
	g, _ := knngraph.RandomN(data, 5, 3, 1)
	g.Kappa = 1 << 22 // 32 MiB of candidate buffer, were κ trusted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Cluster(data, g, Config{K: 10, MaxIter: 5, Seed: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(data.N); err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 8<<20 {
		t.Fatalf("Cluster allocated %d bytes over a 200-row graph with κ = %d", d, g.Kappa)
	}
}

func TestClusterWithAdversarialGraph(t *testing.T) {
	// A graph whose every list points at the same far-away node is
	// maximally misleading. Clustering must stay valid and, because BKM
	// only accepts strictly improving moves, distortion must not exceed
	// the 2M-tree initialisation's distortion.
	data := dataset.SIFTLike(300, 3)
	g := knngraph.New(300, 3)
	for i := 0; i < 300; i++ {
		target := int32((i + 150) % 300)
		g.Insert(i, target, 1) // wrong distances too
	}
	init, err := Cluster(data, knngraph.New(300, 3), Config{K: 15, MaxIter: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eInit := metrics.DistortionFromLabels(data, init.Labels, 15)
	res, err := Cluster(data, g, Config{K: 15, MaxIter: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eRes := metrics.AverageDistortion(data, res.Labels, res.Centroids)
	if eRes > eInit*1.0001 {
		t.Fatalf("adversarial graph made distortion worse than init: %v vs %v", eRes, eInit)
	}
}

func TestClusterWithWrongDistancesInGraph(t *testing.T) {
	// Candidate collection only reads neighbour *ids*; corrupt distances
	// must not change the result at all.
	data := dataset.GloVeLike(250, 5)
	g, err := BuildGraph(data, GraphConfig{Kappa: 6, Xi: 20, Tau: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := g.Clone()
	rng := rand.New(rand.NewSource(7))
	for i := range corrupted.Lists {
		for j := range corrupted.Lists[i] {
			corrupted.Lists[i][j].Dist = rng.Float32() // nonsense, unsorted
		}
	}
	a, err := Cluster(data, g, Config{K: 12, MaxIter: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(data, corrupted, Config{K: 12, MaxIter: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("corrupted distances changed the clustering — ids alone must decide")
		}
	}
}

func TestLowQualityGraphDegradesGracefully(t *testing.T) {
	// Random graph (recall ≈ 0) must still produce a usable clustering —
	// worse than a good graph, but far better than random labels.
	data := dataset.SIFTLike(800, 9)
	k := 20
	randomG := knngraph.Random(data, 10, 10)
	goodG, err := BuildGraph(data, GraphConfig{Kappa: 10, Xi: 25, Tau: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	onRandom, err := Cluster(data, randomG, Config{K: k, MaxIter: 15, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	onGood, err := Cluster(data, goodG, Config{K: k, MaxIter: 15, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	eRandomG := metrics.AverageDistortion(data, onRandom.Labels, onRandom.Centroids)
	eGoodG := metrics.AverageDistortion(data, onGood.Labels, onGood.Centroids)
	if eGoodG > eRandomG*1.001 {
		t.Fatalf("better graph should not hurt: good %v vs random %v", eGoodG, eRandomG)
	}
	rng := rand.New(rand.NewSource(13))
	randLabels := make([]int, data.N)
	for i := range randLabels {
		randLabels[i] = rng.Intn(k)
	}
	eRandLabels := metrics.DistortionFromLabels(data, randLabels, k)
	if eRandomG > eRandLabels*0.95 {
		t.Fatalf("random-graph clustering %v not clearly better than random labels %v",
			eRandomG, eRandLabels)
	}
}

func TestBuildGraphExtremeParameters(t *testing.T) {
	data := dataset.Uniform(100, 4, 14)
	// xi = 1: every refinement cluster is (nearly) a singleton — no pairs,
	// graph stays random, but nothing crashes.
	g, err := BuildGraph(data, GraphConfig{Kappa: 4, Xi: 1, Tau: 2, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// kappa > n clamps.
	g, err = BuildGraph(data, GraphConfig{Kappa: 500, Xi: 20, Tau: 1, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if g.Kappa != 99 {
		t.Fatalf("kappa should clamp to n-1, got %d", g.Kappa)
	}
}

func TestOptimizerSingletonClustersEverywhere(t *testing.T) {
	// k = n: every cluster is a singleton; no move is ever legal, and an
	// epoch must report zero moves rather than emptying clusters.
	data := dataset.Uniform(30, 3, 17)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i
	}
	o, err := bkm.NewOptimizer(data, labels, 30)
	if err != nil {
		t.Fatal(err)
	}
	if moves := o.Epoch(nil, nil); moves != 0 {
		t.Fatalf("singleton clusters moved %d samples", moves)
	}
	for r := 0; r < 30; r++ {
		if o.Count(r) != 1 {
			t.Fatalf("cluster %d size %d", r, o.Count(r))
		}
	}
}
