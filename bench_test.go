package gkmeans_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (each invokes the same runner as cmd/experiments at a reduced size so
// `go test -bench=.` completes on a laptop), plus micro-benchmarks on the
// kernels that dominate run time. Regenerate the full-size tables with
// cmd/experiments.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gkmeans"
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
	// BenchmarkBKMFullEpoch to see the paper's speed-up at this k. Both
	// start from the same fixed labels, so no 2M tree is timed here; what
	// is timed besides the epoch is building the optimiser's composites.
	data := dataset.SIFTLike(2000, 1)
	k := 50
	g, err := core.BuildGraph(data, core.GraphConfig{Kappa: 10, Xi: 25, Tau: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]int, data.N)
	for i := range labels {
		labels[i] = i % k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Cluster(data, g, core.Config{K: k, MaxIter: 1, Seed: 2, InitLabels: labels})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterOffline times Index.Cluster at the shape of the
// benchmark's cluster-offline workload (SIFTLike 2500×128 indexed at κ20
// ξ50 τ8, k=250, 10 epochs) on one and two workers, and splits each call
// into its 2M tree (init-ms) and its mean epoch (epoch-ms).
func BenchmarkClusterOffline(b *testing.B) {
	data := dataset.SIFTLike(2500, 1)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(20), gkmeans.WithXi(50), gkmeans.WithTau(8), gkmeans.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var init, iter time.Duration
			var epochs int
			for i := 0; i < b.N; i++ {
				res, err := idx.Cluster(context.Background(), 250, gkmeans.WithMaxIter(10), gkmeans.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				init += res.InitTime
				iter += res.IterTime
				epochs += res.Iters
			}
			b.ReportMetric(float64(init.Microseconds())/1e3/float64(b.N), "init-ms")
			b.ReportMetric(float64(iter.Microseconds())/1e3/float64(epochs), "epoch-ms")
		})
	}
}

func BenchmarkGraphInsert(b *testing.B) {
	g := knngraph.New(1000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Insert(i%1000, int32((i*7)%1000), float32(i%97))
	}
}

// --- the layers of a daemon restart: load, save, and a flush's build ---

// restartShapes are the benchmark's two served indexes at its operating
// point (κ20 ξ50 τ8, 256 entry points per shard): serve-mixed's routed
// float32 index, whose restarts replay memtable flushes, and serve-read's
// routed uint8 one.
var restartShapes = []struct {
	name string
	n    int
	opts []gkmeans.Option
}{
	{"serve-mixed", 10000, []gkmeans.Option{gkmeans.WithShards(4), gkmeans.WithRouting(16)}},
	{"serve-read-u8", 12000, []gkmeans.Option{gkmeans.WithDType(gkmeans.DTypeUint8), gkmeans.WithShards(4), gkmeans.WithRouting(32)}},
}

// restartIndexes caches one build per shape across the benchmarks below.
var restartIndexes sync.Map // shape name → *gkmeans.Index

func restartIndex(b *testing.B, shape int) *gkmeans.Index {
	b.Helper()
	sh := restartShapes[shape]
	if x, ok := restartIndexes.Load(sh.name); ok {
		return x.(*gkmeans.Index)
	}
	opts := append([]gkmeans.Option{gkmeans.WithKappa(20), gkmeans.WithXi(50), gkmeans.WithTau(8),
		gkmeans.WithSeed(1), gkmeans.WithEntryPoints(256)}, sh.opts...)
	x, err := gkmeans.Build(context.Background(), dataset.SIFTLike(sh.n, 1), opts...)
	if err != nil {
		b.Fatal(err)
	}
	restartIndexes.Store(sh.name, x)
	return x
}

// BenchmarkLoadIndex times LoadIndex of a saved index: the first step of a
// restart, before any WAL replay. "warm" loads onto the heap the previous
// loads left behind. "cold" first returns the heap to the operating system
// (debug.FreeOSMemory, untimed), so that every load gets fresh pages as a
// restarted process does, and reports first-search-ms: the first
// SearchNProbe after the load (ef 64, nprobe 2), untimed in ns/op, which
// builds the searchers of the segments it probes.
func BenchmarkLoadIndex(b *testing.B) {
	q := dataset.SIFTLike(1, 99).Row(0) // byte-valued: a query for the uint8 shape too
	for shape, sh := range restartShapes {
		b.Run(sh.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "idx.gkx")
			if err := gkmeans.SaveIndex(path, restartIndex(b, shape)); err != nil {
				b.Fatal(err)
			}
			b.Run("warm", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := gkmeans.LoadIndex(path); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("cold", func(b *testing.B) {
				var search time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					debug.FreeOSMemory()
					b.StartTimer()
					x, err := gkmeans.LoadIndex(path)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					x.SearchNProbe(q, 10, 64, 2)
					search += time.Since(start)
					b.StartTimer()
				}
				b.ReportMetric(float64(search)/1e6/float64(b.N), "first-search-ms")
			})
		})
	}
}

// BenchmarkSaveIndex times the encoding SaveIndex writes (Index.WriteTo),
// into memory: the file and its fsync are the disk's cost, not the
// encoder's. A compaction's checkpoint pays it under the entry's lock.
func BenchmarkSaveIndex(b *testing.B) {
	for shape, sh := range restartShapes {
		b.Run(sh.name, func(b *testing.B) {
			x := restartIndex(b, shape)
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := x.WriteTo(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// BenchmarkAppendLoaded times one memtable flush — Append of 256 rows — on
// serve-mixed's index as built and on the same index saved and loaded
// again, which is the index a restarted daemon flushes into. A loaded index
// builds with the options it was saved with, so the two cost the same.
func BenchmarkAppendLoaded(b *testing.B) {
	built := restartIndex(b, 0)
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	loaded, err := gkmeans.ReadIndexFrom(&buf)
	if err != nil {
		b.Fatal(err)
	}
	rows := dataset.SIFTLike(256, 2)
	for _, tc := range []struct {
		name string
		x    *gkmeans.Index
	}{{"in-memory", built}, {"loaded", loaded}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.x.Append(context.Background(), rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
