package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"gkmeans/internal/bkm"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/metrics"
)

func TestClusterCloseToFullBKM(t *testing.T) {
	// The paper's headline quality claim: GK-means lands within a few
	// percent of exhaustive boost k-means while examining far fewer
	// clusters per sample.
	data := dataset.SIFTLike(1500, 1)
	k := 50
	g, err := BuildGraph(data, GraphConfig{Kappa: 10, Xi: 30, Tau: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := Cluster(data, g, Config{K: k, MaxIter: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := gres.Validate(data.N); err != nil {
		t.Fatal(err)
	}
	bres, err := bkm.Cluster(data, bkm.Config{K: k, MaxIter: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eG := metrics.AverageDistortion(data, gres.Labels, gres.Centroids)
	eB := metrics.AverageDistortion(data, bres.Labels, bres.Centroids)
	if eG > eB*1.10 {
		t.Fatalf("GK-means distortion %.2f more than 10%% above BKM %.2f", eG, eB)
	}
	// The candidate statistic must demonstrate the pruning.
	if gres.AvgCandidates >= float64(k)/2 {
		t.Fatalf("avg candidates %.1f not clearly below k=%d", gres.AvgCandidates, k)
	}
	if gres.AvgCandidates <= 0 {
		t.Fatal("candidate statistic not recorded")
	}
}

func TestClusterCandidatesBoundedByKappa(t *testing.T) {
	data := dataset.GloVeLike(400, 2)
	g := knngraph.Random(data, 8, 1)
	res, err := Cluster(data, g, Config{K: 20, MaxIter: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgCandidates > 8 {
		t.Fatalf("avg candidates %.2f exceeds kappa=8", res.AvgCandidates)
	}
}

func TestClusterTraditionalVariant(t *testing.T) {
	data := dataset.SIFTLike(1000, 4)
	k := 25
	g, err := BuildGraph(data, GraphConfig{Kappa: 10, Xi: 25, Tau: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tres, err := Cluster(data, g, Config{K: k, MaxIter: 25, Seed: 6, Traditional: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tres.Validate(data.N); err != nil {
		t.Fatal(err)
	}
	bres, err := Cluster(data, g, Config{K: k, MaxIter: 25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	eT := metrics.AverageDistortion(data, tres.Labels, tres.Centroids)
	eB := metrics.AverageDistortion(data, bres.Labels, bres.Centroids)
	// Paper Fig. 4: the boost-k-means-based variant shows lower distortion
	// than GK-means− at the same graph quality. Allow generous noise.
	if eB > eT*1.05 {
		t.Fatalf("boost variant (%.2f) clearly worse than traditional (%.2f)", eB, eT)
	}
}

func TestClusterTraditionalKeepsClustersAlive(t *testing.T) {
	data := dataset.Uniform(300, 8, 7)
	g := knngraph.Random(data, 6, 2)
	res, err := Cluster(data, g, Config{K: 30, MaxIter: 15, Seed: 8, Traditional: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := metrics.ClusterSizes(res.Labels, 30)
	for r, s := range sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty", r)
		}
	}
}

func TestClusterErrors(t *testing.T) {
	data := dataset.Uniform(20, 4, 1)
	g := knngraph.Random(data, 4, 1)
	if _, err := Cluster(data, g, Config{K: 0}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Cluster(data, g, Config{K: 21}); err == nil {
		t.Fatal("k>n should error")
	}
	if _, err := Cluster(data, nil, Config{K: 2}); err == nil {
		t.Fatal("nil graph should error")
	}
	other := knngraph.Random(dataset.Uniform(10, 4, 2), 3, 1)
	if _, err := Cluster(data, other, Config{K: 2}); err == nil {
		t.Fatal("graph size mismatch should error")
	}
	if _, err := Cluster(data, g, Config{K: 2, InitLabels: []int{0}}); err == nil {
		t.Fatal("short init labels should error")
	}
}

func TestClusterWithInitLabelsSkipsTree(t *testing.T) {
	data := dataset.Uniform(100, 4, 9)
	g := knngraph.Random(data, 5, 3)
	rng := rand.New(rand.NewSource(10))
	init := make([]int, 100)
	for i := range init {
		init[i] = rng.Intn(10)
	}
	initCopy := append([]int(nil), init...)
	res, err := Cluster(data, g, Config{K: 10, MaxIter: 5, Seed: 11, InitLabels: init})
	if err != nil {
		t.Fatal(err)
	}
	for i := range init {
		if init[i] != initCopy[i] {
			t.Fatal("InitLabels mutated")
		}
	}
	if err := res.Validate(data.N); err != nil {
		t.Fatal(err)
	}
}

func TestClusterDeterministic(t *testing.T) {
	data := dataset.SIFTLike(300, 12)
	g, _ := BuildGraph(data, GraphConfig{Kappa: 8, Xi: 20, Tau: 3, Seed: 13})
	a, _ := Cluster(data, g, Config{K: 15, MaxIter: 10, Seed: 14})
	b, _ := Cluster(data, g, Config{K: 15, MaxIter: 10, Seed: 14})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestClusterTrace(t *testing.T) {
	data := dataset.Uniform(200, 6, 15)
	g := knngraph.Random(data, 6, 4)
	res, err := Cluster(data, g, Config{K: 10, MaxIter: 8, Seed: 16, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iters {
		t.Fatalf("history %d for %d iters", len(res.History), res.Iters)
	}
	// Boost-variant distortion must be non-increasing across epochs.
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Distortion > res.History[i-1].Distortion*1.0001 {
			t.Fatalf("distortion rose at epoch %d: %v -> %v",
				i, res.History[i-1].Distortion, res.History[i].Distortion)
		}
	}
}

func TestBuildGraphRecallImprovesWithTau(t *testing.T) {
	// Fig. 2 of the paper: recall climbs steeply over the first rounds.
	data := dataset.SIFTLike(1000, 17)
	exact := knngraph.BruteForce(data, 10, 0)
	var recalls []float64
	_, err := BuildGraph(data, GraphConfig{
		Kappa: 10, Xi: 25, Tau: 8, Seed: 18,
		OnRound: func(t int, g *knngraph.Graph, labels []int) {
			recalls = append(recalls, g.Recall(exact))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recalls) != 8 {
		t.Fatalf("OnRound fired %d times, want 8", len(recalls))
	}
	if recalls[7] < 0.7 {
		t.Fatalf("final recall %.3f too low; trajectory %v", recalls[7], recalls)
	}
	if recalls[7] < recalls[0] {
		t.Fatalf("recall did not improve: %v", recalls)
	}
}

func TestBuildGraphValidAndDeterministic(t *testing.T) {
	data := dataset.GloVeLike(400, 19)
	a, err := BuildGraph(data, GraphConfig{Kappa: 8, Xi: 20, Tau: 4, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b, _ := BuildGraph(data, GraphConfig{Kappa: 8, Xi: 20, Tau: 4, Seed: 20})
	for i := range a.Lists {
		if len(a.Lists[i]) != len(b.Lists[i]) {
			t.Fatal("same seed produced different graphs")
		}
		for j := range a.Lists[i] {
			if a.Lists[i][j] != b.Lists[i][j] {
				t.Fatal("same seed produced different graphs")
			}
		}
	}
}

func TestBuildGraphStatsAttributeTheRounds(t *testing.T) {
	data := dataset.SIFTLike(600, 25)
	start := time.Now()
	_, st, err := BuildGraphWithStats(data, GraphConfig{Kappa: 8, Xi: 25, Tau: 3, Seed: 26})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if st.TreeTime <= 0 || st.EpochTime <= 0 || st.RefineTime <= 0 {
		t.Fatalf("tree %v, epoch %v, refine %v: every phase of a round takes time", st.TreeTime, st.EpochTime, st.RefineTime)
	}
	if sum := st.TreeTime + st.EpochTime + st.RefineTime; sum > wall {
		t.Fatalf("phases sum to %v, more than the call's %v", sum, wall)
	}
}

func TestBuildGraphInterruptedStatsDescribeTheWorkDone(t *testing.T) {
	data := dataset.SIFTLike(400, 27)
	cfg := GraphConfig{Kappa: 8, Xi: 25, Tau: 2, Seed: 28}
	_, two, err := BuildGraphWithStats(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	polls := 0
	cfg.Tau = 5
	cfg.Interrupt = func() error {
		if polls++; polls > 2 {
			return stop
		}
		return nil
	}
	g, st, err := BuildGraphWithStats(data, cfg)
	if !errors.Is(err, stop) || g != nil {
		t.Fatalf("graph %v, err %v: want no graph and the interrupt's error", g, err)
	}
	// The per-round seeds do not depend on τ, so two completed rounds of an
	// aborted build did exactly the work of a τ=2 build.
	if st.Rounds != 2 || st.DistComps != two.DistComps || st.DistComps == 0 {
		t.Fatalf("aborted after 2 rounds: rounds %d, dist comps %d; a τ=2 build counts %d", st.Rounds, st.DistComps, two.DistComps)
	}
}

func TestBuildGraphSmallInputs(t *testing.T) {
	if _, err := BuildGraph(dataset.Uniform(1, 4, 1), GraphConfig{}); err == nil {
		t.Fatal("n=1 should error")
	}
	// n smaller than xi: a single refinement cluster (k0=1) makes the graph
	// exact after one round.
	data := dataset.Uniform(30, 4, 21)
	g, err := BuildGraph(data, GraphConfig{Kappa: 5, Xi: 50, Tau: 1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	exact := knngraph.BruteForce(data, 5, 0)
	if r := g.Recall(exact); r != 1 {
		t.Fatalf("single-cluster refinement should be exact, recall %v", r)
	}
}

func TestBuildGraphDefaultsApplied(t *testing.T) {
	data := dataset.Uniform(120, 4, 23)
	g, err := BuildGraph(data, GraphConfig{Tau: 1, Seed: 24}) // Kappa, Xi default
	if err != nil {
		t.Fatal(err)
	}
	if g.Kappa != 50 { // default κ=50 (clamped only when n-1 < 50)
		t.Fatalf("kappa %d, want default 50", g.Kappa)
	}
}
