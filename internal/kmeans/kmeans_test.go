package kmeans

import (
	"gkmeans/internal/splitmix"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/metrics"
	"gkmeans/internal/vec"
)

// separated returns a dataset with c well-separated blobs; ideal for
// checking that clustering recovers obvious structure.
func separated(n, d, c int, seed int64) (*vec.Matrix, []int) {
	return dataset.GMM(dataset.GMMConfig{
		N: n, Dim: d, Components: c, Spread: 50, Noise: 0.5, Seed: seed,
	})
}

func TestLloydRecoversSeparatedClusters(t *testing.T) {
	data, truth := separated(300, 8, 4, 1)
	res, err := Lloyd(data, Config{K: 4, MaxIter: 50, Seed: 42, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(data.N); err != nil {
		t.Fatal(err)
	}
	// Every pair from the same latent component must land together.
	agreement := pairAgreement(res.Labels, truth)
	if agreement < 0.98 {
		t.Fatalf("pair agreement %.3f too low", agreement)
	}
}

// pairAgreement measures how often two samples from the same latent
// component share a predicted cluster (sampled Rand-index style check).
func pairAgreement(pred, truth []int) float64 {
	rng := splitmix.New(9)
	agree, total := 0, 0
	for trial := 0; trial < 20000; trial++ {
		i, j := rng.Intn(len(pred)), rng.Intn(len(pred))
		if i == j || truth[i] != truth[j] {
			continue
		}
		total++
		if pred[i] == pred[j] {
			agree++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}

func TestLloydDistortionNonIncreasing(t *testing.T) {
	data := dataset.SIFTLike(500, 2)
	res, err := Lloyd(data, Config{K: 10, MaxIter: 25, Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		// Allow a microscopic float tolerance.
		if res.History[i].Distortion > res.History[i-1].Distortion*1.0001 {
			t.Fatalf("distortion increased at iter %d: %v -> %v",
				i, res.History[i-1].Distortion, res.History[i].Distortion)
		}
	}
	if res.History[len(res.History)-1].Moves != 0 && res.Iters == 25 {
		t.Log("did not fully converge in 25 iterations (acceptable)")
	}
}

func TestLloydDeterministicForSeed(t *testing.T) {
	data := dataset.GloVeLike(200, 3)
	a, _ := Lloyd(data, Config{K: 8, MaxIter: 20, Seed: 5})
	b, _ := Lloyd(data, Config{K: 8, MaxIter: 20, Seed: 5})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestLloydRejectsBadK(t *testing.T) {
	data := dataset.Uniform(10, 4, 1)
	if _, err := Lloyd(data, Config{K: 0}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Lloyd(data, Config{K: 11}); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestLloydKeepsAllClustersNonEmpty(t *testing.T) {
	data, _ := separated(200, 4, 2, 6)
	// k=8 on 2 blobs forces empty-cluster repairs.
	res, err := Lloyd(data, Config{K: 8, MaxIter: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := metrics.ClusterSizes(res.Labels, 8)
	if metrics.NonEmpty(sizes) < 6 {
		t.Fatalf("too many empty clusters: sizes %v", sizes)
	}
}

func TestPlusPlusSpreadsSeeds(t *testing.T) {
	data, _ := separated(400, 8, 4, 8)
	rng := splitmix.New(1)
	c := PlusPlusSeed(data, 4, &rng)
	// Seeds should hit distinct blobs: pairwise distances all large.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if vec.L2Sqr(c.Row(a), c.Row(b)) < 100 {
				t.Fatalf("seeds %d and %d too close", a, b)
			}
		}
	}
}

func TestPlusPlusDuplicateData(t *testing.T) {
	// All-identical rows: total mass is zero after the first pick; seeding
	// must still return k centres without dividing by zero.
	rows := make([][]float32, 10)
	for i := range rows {
		rows[i] = []float32{1, 2, 3}
	}
	data := vec.FromRows(rows)
	rng := splitmix.New(2)
	c := PlusPlusSeed(data, 3, &rng)
	if c.N != 3 {
		t.Fatalf("got %d seeds", c.N)
	}
}

func TestRandomSeedDistinctRows(t *testing.T) {
	data := dataset.Uniform(50, 4, 3)
	rng := splitmix.New(3)
	c := RandomSeed(data, 50, &rng)
	seen := map[int]bool{}
	for r := 0; r < 50; r++ {
		found := -1
		for i := 0; i < data.N; i++ {
			if vec.L2Sqr(c.Row(r), data.Row(i)) == 0 {
				found = i
				break
			}
		}
		if found < 0 || seen[found] {
			t.Fatalf("seed %d not a distinct data row", r)
		}
		seen[found] = true
	}
}

func TestMiniBatchRunsAndLabels(t *testing.T) {
	data, truth := separated(400, 8, 4, 4)
	res, err := MiniBatch(data, MiniBatchConfig{
		Config:    Config{K: 4, MaxIter: 40, Seed: 1, PlusPlus: true},
		BatchSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(data.N); err != nil {
		t.Fatal(err)
	}
	if agreement := pairAgreement(res.Labels, truth); agreement < 0.9 {
		t.Fatalf("mini-batch pair agreement %.3f", agreement)
	}
}

func TestMiniBatchWorseThanLloydOnHardData(t *testing.T) {
	// The paper's recurring observation (Fig. 5, Fig. 7): mini-batch is fast
	// but converges to clearly higher distortion.
	data := dataset.SIFTLike(1500, 5)
	k := 30
	ll, err := Lloyd(data, Config{K: k, MaxIter: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := MiniBatch(data, MiniBatchConfig{
		Config:    Config{K: k, MaxIter: 25, Seed: 2},
		BatchSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	eL := metrics.AverageDistortion(data, ll.Labels, ll.Centroids)
	eM := metrics.AverageDistortion(data, mb.Labels, mb.Centroids)
	if eM < eL*0.95 {
		t.Fatalf("mini-batch (%.1f) unexpectedly beat Lloyd (%.1f)", eM, eL)
	}
}

func TestMiniBatchBadConfig(t *testing.T) {
	data := dataset.Uniform(10, 2, 1)
	if _, err := MiniBatch(data, MiniBatchConfig{Config: Config{K: 0}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestResultValidate(t *testing.T) {
	r := &Result{Labels: []int{0, 1}, Centroids: vec.NewMatrix(2, 2), K: 2}
	if err := r.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(3); err == nil {
		t.Fatal("wrong n should fail")
	}
	r.Labels[0] = 5
	if err := r.Validate(2); err == nil {
		t.Fatal("out-of-range label should fail")
	}
	r2 := &Result{Labels: []int{0}, Centroids: vec.NewMatrix(3, 2), K: 2}
	if err := r2.Validate(1); err == nil {
		t.Fatal("centroid shape mismatch should fail")
	}
}

func TestTraceHistoryRecorded(t *testing.T) {
	data := dataset.Uniform(100, 4, 1)
	res, err := Lloyd(data, Config{K: 5, MaxIter: 10, Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 || len(res.History) != res.Iters {
		t.Fatalf("history %d entries for %d iters", len(res.History), res.Iters)
	}
	for i, h := range res.History {
		if h.Iter != i+1 {
			t.Fatalf("history iter numbering wrong at %d", i)
		}
		if h.Elapsed <= 0 {
			t.Fatalf("history elapsed not recorded at %d", i)
		}
	}
}

// InitLabels starts Lloyd from that labelling's means with no seeding: a
// converged labelling is a fixed point (no moves, same centroids), the
// caller's slice is left alone, and malformed labellings are refused.
func TestLloydInitLabels(t *testing.T) {
	data := dataset.SIFTLike(400, 4)
	done, err := Lloyd(data, Config{K: 8, MaxIter: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	init := append([]int(nil), done.Labels...)
	res, err := Lloyd(data, Config{K: 8, MaxIter: 1, Seed: 9, Workers: 2, Trace: true, InitLabels: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 || res.History[0].Moves != 0 {
		t.Fatalf("converged labels: %d iterations, %d moves; want 1 and 0", res.Iters, res.History[0].Moves)
	}
	assertSameResult(t, "from converged labels", done, res)
	for i, l := range init {
		if l != done.Labels[i] {
			t.Fatal("InitLabels were mutated")
		}
	}
	for name, bad := range map[string][]int{"short": init[:10], "negative": append([]int{-1}, init[1:]...), "past k": append([]int{8}, init[1:]...)} {
		if _, err := Lloyd(data, Config{K: 8, InitLabels: bad}); err == nil {
			t.Fatalf("%s init labels accepted", name)
		}
	}
	if _, err := MiniBatch(data, MiniBatchConfig{Config: Config{K: 8, InitLabels: init}}); err == nil {
		t.Fatal("MiniBatch accepted InitLabels")
	}
}
