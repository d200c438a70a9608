package twomeans

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"gkmeans/internal/bkm"
	"gkmeans/internal/dataset"
	"gkmeans/internal/splitmix"
	"gkmeans/internal/vec"
)

// referenceCluster is the tree as it was before the dedicated two-cluster
// loop: the same heap walk, with every bisection driven through the general
// bkm.Optimizer at k=2. It is the oracle the tests below pin Cluster to.
func referenceCluster(data *vec.Matrix, cfg Config) []int {
	rng := splitmix.New(cfg.Seed)
	all := make([]int, data.N)
	for i := range all {
		all[i] = i
	}
	h := &sizeHeap{{members: all}}
	heap.Init(h)
	for h.Len() < cfg.K {
		top := heap.Pop(h).(*cluster)
		left, right := referenceBisect(data, top.members, cfg, &rng)
		heap.Push(h, &cluster{members: left})
		heap.Push(h, &cluster{members: right})
	}
	labels := make([]int, data.N)
	for id, c := range *h {
		for _, i := range c.members {
			labels[i] = id
		}
	}
	return labels
}

// referenceBisect is the former bisect, verbatim.
func referenceBisect(data *vec.Matrix, members []int, cfg Config, rng *splitmix.Stream) (left, right []int) {
	sub := data.SubsetRows(members)
	labels := make([]int, sub.N)
	// Random balanced initial split.
	perm := rng.Perm(sub.N)
	for idx, i := range perm {
		labels[i] = idx % 2
	}
	o, err := bkm.NewOptimizer(sub, labels, 2)
	if err != nil {
		// Unreachable: inputs are validated by Cluster. Fall back to the
		// initial random split rather than crash mid-tree.
		return splitByLabel(members, labels)
	}
	iters := cfg.BisectIters
	if iters <= 0 {
		iters = 8
	}
	order := rng.Perm(sub.N)
	for e := 0; e < iters; e++ {
		if o.Epoch(order, nil) == 0 {
			break
		}
	}
	// Equal-size adjustment: order members by how much closer they are to
	// centre u than to centre v, then cut in the middle.
	cents := o.Centroids()
	cu, cv := cents.Row(0), cents.Row(1)
	type scored struct {
		member int
		diff   float32
	}
	sc := make([]scored, sub.N)
	for i := 0; i < sub.N; i++ {
		row := sub.Row(i)
		sc[i] = scored{members[i], vec.L2Sqr(row, cu) - vec.L2Sqr(row, cv)}
	}
	sort.Slice(sc, func(a, b int) bool {
		if sc[a].diff != sc[b].diff {
			return sc[a].diff < sc[b].diff
		}
		return sc[a].member < sc[b].member // deterministic tie break
	})
	half := (len(sc) + 1) / 2
	left = make([]int, 0, half)
	right = make([]int, 0, len(sc)-half)
	for i, s := range sc {
		if i < half {
			left = append(left, s.member)
		} else {
			right = append(right, s.member)
		}
	}
	return left, right
}

// splitByLabel partitions members by a binary labelling (fallback path).
func splitByLabel(members []int, labels []int) (left, right []int) {
	for i, m := range members {
		if labels[i] == 0 {
			left = append(left, m)
		} else {
			right = append(right, m)
		}
	}
	return left, right
}

// blobs draws a small Gaussian mixture of any width — unlike the fixed-width
// SIFT/GloVe/GIST generators it covers dim not a multiple of 4 — either
// byte-valued like SIFTLike or real-valued like GloVeLike.
func blobs(n, dim int, seed int64, quantised bool) *vec.Matrix {
	cfg := dataset.GMMConfig{N: n, Dim: dim, Components: 4, Spread: 1.2, Noise: 1.2, Seed: seed}
	if quantised {
		cfg.Spread, cfg.Noise, cfg.Offset = 14, 15, 60
		cfg.ClampMax, cfg.Quantize = 160, true
	}
	m, _ := dataset.GMM(cfg)
	return m
}

// TestClusterMatchesReference pins the two-cluster loop label for label to
// the bkm.Optimizer tree it replaced: byte-valued corpora (provably
// identical — every sum and dot is an exact integer) and real-valued ones
// (identical in practice), odd n, k not a power of two, k = n, dim not a
// multiple of 4, every BisectIters the config test uses, ten seeds each.
func TestClusterMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		data func(seed int64) *vec.Matrix
		k    int
	}{
		{"siftlike-500-k10", func(s int64) *vec.Matrix { return dataset.SIFTLike(500, s) }, 10},
		{"siftlike-odd-333-k7", func(s int64) *vec.Matrix { return dataset.SIFTLike(333, s) }, 7},
		{"glovelike-401-k13", func(s int64) *vec.Matrix { return dataset.GloVeLike(401, s) }, 13},
		{"gistlike-97-k5", func(s int64) *vec.Matrix { return dataset.GISTLike(97, s) }, 5},
		{"uniform-101x4-k7", func(s int64) *vec.Matrix { return dataset.Uniform(101, 4, s) }, 7},
		{"uniform-64x3-k-equals-n", func(s int64) *vec.Matrix { return dataset.Uniform(64, 3, s) }, 64},
		{"blobs-real-257x7-k11", func(s int64) *vec.Matrix { return blobs(257, 7, s, false) }, 11},
		{"blobs-byte-200x13-k9", func(s int64) *vec.Matrix { return blobs(200, 13, s, true) }, 9},
		{"blobs-byte-k-equals-n", func(s int64) *vec.Matrix { return blobs(33, 5, s, true) }, 33},
	}
	for _, tc := range cases {
		for _, iters := range []int{0, 1, 4, 12} {
			t.Run(fmt.Sprintf("%s/iters%d", tc.name, iters), func(t *testing.T) {
				for seed := int64(1); seed <= 10; seed++ {
					data := tc.data(seed)
					cfg := Config{K: tc.k, Seed: seed * 7919, BisectIters: iters}
					got, err := Cluster(data, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, referenceCluster(data, cfg)) {
						t.Fatalf("seed %d: labels differ from the reference tree's", seed)
					}
				}
			})
		}
	}
}

// TestClusterConcurrentCallsAgree: sharded builds run one tree per shard at
// once, so nothing a call touches may be shared. Run under -race.
func TestClusterConcurrentCallsAgree(t *testing.T) {
	data := dataset.SIFTLike(600, 3)
	cfg := Config{K: 12, Seed: 5}
	want, err := Cluster(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Cluster(data, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want) {
				t.Error("concurrent call returned different labels")
			}
		}()
	}
	wg.Wait()
}

// TestClusterAllocsAreOrderK: a tree allocates per node (heap entry, the two
// permutations) and per call (the arena, the labels) — never per epoch or per
// member. At the benchmark's operating point that is a few per bisection.
func TestClusterAllocsAreOrderK(t *testing.T) {
	data := dataset.SIFTLike(2500, 1)
	const k = 50
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Cluster(data, Config{K: k, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(6 * k); allocs > limit {
		t.Fatalf("%.0f allocations for k=%d, want at most %.0f", allocs, k, limit)
	}
}

// FuzzBisectEquivalence drives the oracle comparison from arbitrary shapes;
// the seed corpus is under testdata/fuzz.
func FuzzBisectEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, k uint16, dim uint8, seed int64, quantised bool) {
		nn := 2 + int(n)%400
		kk := 1 + int(k)%nn
		dd := 1 + int(dim)%40
		data := blobs(nn, dd, seed, quantised)
		cfg := Config{K: kk, Seed: seed, BisectIters: int(n) % 5}
		got, err := Cluster(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, referenceCluster(data, cfg)) {
			t.Fatalf("n=%d k=%d dim=%d seed=%d quantised=%v: labels differ from the reference tree's",
				nn, kk, dd, seed, quantised)
		}
	})
}
