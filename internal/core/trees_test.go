package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

// TestBuildGraphTreesAheadBitIdentical: growing the round trees ahead on
// idle lanes changes no bit of the graph. τ runs below and above the lane
// count, on a byte-valued (SIFTLike) and a real-valued (GloVeLike) corpus.
func TestBuildGraphTreesAheadBitIdentical(t *testing.T) {
	corpora := []struct {
		name string
		data *vec.Matrix
	}{
		{"sift", dataset.SIFTLike(500, 31)},
		{"glove", dataset.GloVeLike(500, 32)},
	}
	for _, c := range corpora {
		for _, tau := range []int{1, 3, 12} {
			cfg := GraphConfig{Kappa: 8, Xi: 25, Tau: tau, Seed: 33, Workers: 1}
			ref, refStats, err := BuildGraphWithStats(c.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				cfg.Workers = workers
				g, st, err := BuildGraphWithStats(c.data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.DistComps != refStats.DistComps || st.Rounds != tau {
					t.Fatalf("%s τ=%d workers=%d: %d rounds, %d dist comps; one worker counts %d",
						c.name, tau, workers, st.Rounds, st.DistComps, refStats.DistComps)
				}
				if diff := firstGraphDiff(ref, g); diff != "" {
					t.Fatalf("%s τ=%d workers=%d differs from one worker: %s", c.name, tau, workers, diff)
				}
			}
		}
	}
}

// firstGraphDiff names the first neighbour whose id or distance bits differ.
func firstGraphDiff(a, b *knngraph.Graph) string {
	for i := range a.Lists {
		if len(a.Lists[i]) != len(b.Lists[i]) {
			return fmt.Sprintf("node %d holds %d neighbours, not %d", i, len(b.Lists[i]), len(a.Lists[i]))
		}
		for j, nb := range a.Lists[i] {
			o := b.Lists[i][j]
			if nb.ID != o.ID || math.Float32bits(nb.Dist) != math.Float32bits(o.Dist) {
				return fmt.Sprintf("node %d rank %d is %d@%v, not %d@%v", i, j, o.ID, o.Dist, nb.ID, nb.Dist)
			}
		}
	}
	return ""
}

// TestBuildGraphLanes holds a build to its worker bound: no more than
// Workers lanes busy at once, no goroutine at all on one worker, and no tree
// left running after the call returns — whether it finished or was
// interrupted while later trees were in flight.
func TestBuildGraphLanes(t *testing.T) {
	data := dataset.SIFTLike(1000, 34)
	for _, workers := range []int{1, 2, 3, 8} {
		base := runtime.NumGoroutine()
		cfg := GraphConfig{Kappa: 8, Xi: 50, Tau: 6, Seed: 35, Workers: workers}
		if workers == 1 {
			cfg.OnRound = func(round int, _ *knngraph.Graph, _ []int) {
				if n := runtime.NumGoroutine(); n > base {
					t.Errorf("one worker, round %d: %d goroutines, %d before the build", round, n, base)
				}
			}
		}
		_, st, err := BuildGraphWithStats(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.peakLanes < 1 || st.peakLanes > workers {
			t.Fatalf("workers=%d: %d lanes busy at once", workers, st.peakLanes)
		}
		// On one processor a tree goroutine may only ever run while the
		// round loop waits, so only a multi-processor run must overlap.
		if workers > 1 && runtime.GOMAXPROCS(0) > 1 && st.peakLanes < 2 {
			t.Fatalf("workers=%d: never more than one lane busy; no tree grew ahead", workers)
		}
		checkNoGoroutineLeft(t, base)

		stop := errors.New("stop")
		polls := 0
		cfg.Tau = 12
		cfg.OnRound = nil
		cfg.Interrupt = func() error {
			if polls++; polls > 2 {
				return stop
			}
			return nil
		}
		g, st, err := BuildGraphWithStats(data, cfg)
		if !errors.Is(err, stop) || g != nil || st.Rounds != 2 {
			t.Fatalf("workers=%d interrupted after round 2: graph %v, %d rounds, err %v", workers, g, st.Rounds, err)
		}
		if st.peakLanes > workers {
			t.Fatalf("workers=%d interrupted: %d lanes busy at once", workers, st.peakLanes)
		}
		checkNoGoroutineLeft(t, base)
	}
}

// checkNoGoroutineLeft fails if a 2M tree is still growing once the build
// has returned, or if the goroutine count does not come back to base. A
// goroutine that has signalled its end can still be unwinding, even
// preempted inside WaitGroup.Done, when the call returns, so the count gets
// a grace period; a tree still growing fails at once.
func checkNoGoroutineLeft(t *testing.T, base int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "twomeans.Cluster") {
		t.Fatalf("a 2M tree is still growing after the build returned:\n%s", stacks)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the build returned, %d before", n, base)
	}
}

// BenchmarkBuildGraph is one intertwined build at the benchmark's operating
// point (SIFTLike, κ=20 ξ=50 τ=8) on GOMAXPROCS workers, so -cpu 1,2
// compares one lane with two. n=2500 is the offline stage's build; n=256 is
// the default memtable flush, the build a restart replays once per flush.
// It reports where the round loop's time went per build — waiting for its
// tree, the epoch, and refinement — and the distances the build computed.
func BenchmarkBuildGraph(b *testing.B) {
	for _, n := range []int{2500, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := dataset.SIFTLike(n, 1)
			cfg := GraphConfig{Kappa: 20, Xi: 50, Tau: 8, Seed: 1}
			var tree, epoch, ref float64
			var comps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := BuildGraphWithStats(data, cfg)
				if err != nil {
					b.Fatal(err)
				}
				tree += st.TreeTime.Seconds()
				epoch += st.EpochTime.Seconds()
				ref += st.RefineTime.Seconds()
				comps += st.DistComps
			}
			ms := 1e3 / float64(b.N)
			b.ReportMetric(tree*ms, "tree-wait-ms/op")
			b.ReportMetric(epoch*ms, "epoch-ms/op")
			b.ReportMetric(ref*ms, "refine-ms/op")
			b.ReportMetric(float64(comps)/float64(b.N), "dist-comps/op")
		})
	}
}
