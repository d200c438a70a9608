package gkmeans_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (each invokes the same runner as cmd/experiments at a reduced size so
// `go test -bench=.` completes on a laptop), plus micro-benchmarks on the
// kernels that dominate run time. Regenerate the full-size tables with
// cmd/experiments.

import (
	"testing"

	"gkmeans/internal/bench"
	"gkmeans/internal/bkm"
	"gkmeans/internal/core"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

func BenchmarkFig1CoOccurrence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig1(bench.Fig1Config{N: 1500, MaxRank: 50, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2GraphEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2(bench.Fig2Config{N: 2000, Tau: 6, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ConfigurationTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig4(bench.Fig4Config{N: 1500, Iters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5SIFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5("sift", bench.Fig5Config{N: 1500, Iters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Glove(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5("glove", bench.Fig5Config{N: 1500, Iters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5GIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5("gist", bench.Fig5Config{N: 1200, Iters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6SizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := bench.Fig6Size(bench.Fig6Config{Sizes: []int{500, 1000, 2000}, KForN: 16, Iters: 6, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6KSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := bench.Fig6K(bench.Fig6Config{NForK: 2000, Ks: []int{16, 32, 64}, Iters: 6, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2HugeK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(bench.Table2Config{N: 2000, Iters: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkANNSSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ANNS(bench.ANNSConfig{N: 2000, Queries: 50, Tau: 6, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablation(bench.AblationConfig{N: 800, Iters: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks on the hot kernels ---

func BenchmarkDotMixed512(b *testing.B) {
	x := dataset.VLADLike(1, 1)
	comp := make([]float64, 512)
	for i := range comp {
		comp[i] = float64(i)
	}
	b.SetBytes(512 * 8)
	for i := 0; i < b.N; i++ {
		_ = vec.DotMixed(comp, x.Row(0))
	}
}

func BenchmarkBKMFullEpoch(b *testing.B) {
	data := dataset.SIFTLike(2000, 1)
	k := 50
	labels := make([]int, data.N)
	for i := range labels {
		labels[i] = i % k
	}
	o, err := bkm.NewOptimizer(data, labels, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Epoch(nil, nil) // exhaustive candidates: O(n·k·d)
	}
}

func BenchmarkGKMeansEpoch(b *testing.B) {
	// The same epoch with graph-pruned candidates: O(n·κ·d). Compare with
	// BenchmarkBKMFullEpoch to see the paper's speed-up at this k.
	data := dataset.SIFTLike(2000, 1)
	k := 50
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 10, Xi: 25, Tau: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Cluster(data, g, core.Config{K: k, MaxIter: 1, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphInsert(b *testing.B) {
	g := knngraph.New(1000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Insert(i%1000, int32((i*7)%1000), float32(i%97))
	}
}
