package twomeans

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gkmeans/internal/dataset"
	"gkmeans/internal/metrics"
)

func TestClusterProducesKBalancedClusters(t *testing.T) {
	data := dataset.SIFTLike(400, 1)
	for _, k := range []int{2, 3, 7, 16} {
		labels, err := Cluster(data, Config{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sizes := metrics.ClusterSizes(labels, k)
		if metrics.NonEmpty(sizes) != k {
			t.Fatalf("k=%d: %d non-empty clusters", k, metrics.NonEmpty(sizes))
		}
		// Balanced tree: equal-size adjustment at every bisection keeps the
		// max/min ratio small (popping largest first bounds skew at ~2×).
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max > 3*min {
			t.Fatalf("k=%d: unbalanced sizes min=%d max=%d (%v)", k, min, max, sizes)
		}
	}
}

// Property: any valid (n,k) pair yields a complete partition into exactly k
// non-empty clusters.
func TestClusterPartitionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		k := 1 + rng.Intn(n)
		data := dataset.Uniform(n, 1+rng.Intn(8), seed)
		labels, err := Cluster(data, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		if len(labels) != n {
			return false
		}
		return metrics.NonEmpty(metrics.ClusterSizes(labels, k)) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSeparatedDataQuality(t *testing.T) {
	// On well-separated blobs the 2M tree should produce a far better
	// partition than random labelling.
	data, _ := dataset.GMM(dataset.GMMConfig{
		N: 512, Dim: 16, Components: 4, Spread: 30, Noise: 1, Seed: 3,
	})
	labels, err := Cluster(data, Config{K: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eTree := metrics.DistortionFromLabels(data, labels, 4)
	rng := rand.New(rand.NewSource(5))
	randLabels := make([]int, data.N)
	for i := range randLabels {
		randLabels[i] = rng.Intn(4)
	}
	eRand := metrics.DistortionFromLabels(data, randLabels, 4)
	if eTree > eRand/2 {
		t.Fatalf("2M tree distortion %.2f not clearly better than random %.2f", eTree, eRand)
	}
}

func TestClusterErrors(t *testing.T) {
	data := dataset.Uniform(10, 3, 1)
	if _, err := Cluster(data, Config{K: 0}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Cluster(data, Config{K: 11}); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestClusterDeterministic(t *testing.T) {
	data := dataset.GloVeLike(200, 6)
	a, _ := Cluster(data, Config{K: 9, Seed: 7})
	b, _ := Cluster(data, Config{K: 9, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestClusterKEqualsN(t *testing.T) {
	data := dataset.Uniform(8, 2, 2)
	labels, err := Cluster(data, Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := metrics.ClusterSizes(labels, 8)
	for r, s := range sizes {
		if s != 1 {
			t.Fatalf("cluster %d has size %d, want 1", r, s)
		}
	}
}

func TestClusterK1(t *testing.T) {
	data := dataset.Uniform(5, 2, 3)
	labels, err := Cluster(data, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("k=1 must put everything in cluster 0")
		}
	}
}

// TestClusterSameLabelsAtEveryWorkerCount: the planned tree bisects
// disjoint subtrees on up to Workers goroutines, and its labels must not
// depend on how many there are, from one node (n=2) to every sample a leaf
// (k=n). Run under -race, the subtrees' writes to the shared permutation
// and arena are checked to be disjoint too.
func TestClusterSameLabelsAtEveryWorkerCount(t *testing.T) {
	for _, n := range []int{2, 1001, 2500} {
		data := dataset.SIFTLike(n, int64(n))
		for _, k := range []int{1, 2, 3, 7, 250, n} {
			if k > n {
				continue
			}
			want, err := Cluster(data, Config{K: k, Seed: 11, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := Cluster(data, Config{K: k, Seed: 11, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d: labels at %d workers differ from one worker's", n, k, workers)
				}
			}
		}
	}
}

// TestCutKeyOrderMatchesComparisonSort pins the equal-size cut's integer
// sort to the comparison it replaced — by diff, ties by member id — on
// adversarial inputs: many equal diffs, both zeros, subnormals, infinities
// and the extremes of float32.
func TestCutKeyOrderMatchesComparisonSort(t *testing.T) {
	type scored struct {
		member int
		diff   float32
	}
	pool := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), 3.25, -3.25}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		sc := make([]scored, n)
		keys := make([]uint64, n)
		for i := range sc {
			d := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				d = float32(rng.NormFloat64())
			}
			sc[i] = scored{rng.Intn(1 << 20), d}
			keys[i] = cutKey(d, sc[i].member)
		}
		slices.SortFunc(sc, func(a, b scored) int {
			if a.diff < b.diff {
				return -1
			}
			if a.diff > b.diff {
				return 1
			}
			return a.member - b.member
		})
		slices.Sort(keys)
		for i := range sc {
			if int(uint32(keys[i])) != sc[i].member {
				t.Fatalf("trial %d: position %d holds member %d, the comparison sort put %d there",
					trial, i, uint32(keys[i]), sc[i].member)
			}
		}
	}
}
