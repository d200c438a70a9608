package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/parallel"
	"gkmeans/internal/vec"
)

// refineReference is refinement as it was before the visited check spanned
// rounds: every co-clustered pair, every round, with list scans for the
// edges either endpoint holds. It is the oracle refine is pinned to.
func refineReference(data *vec.Matrix, g *knngraph.Graph, labels []int, k int, workers int) int64 {
	var distComps atomic.Int64
	clusters := make([][]int32, k)
	for i, l := range labels {
		clusters[l] = append(clusters[l], int32(i))
	}
	parallel.For(k, workers, func(lo, hi int) {
		var comps int64
		for c := lo; c < hi; c++ {
			members := clusters[c]
			for a := 0; a < len(members); a++ {
				ia := members[a]
				rowA := data.Row(int(ia))
				for b := a + 1; b < len(members); b++ {
					ib := members[b]
					d, inA := g.Lookup(int(ia), ib)
					var inB bool
					if !inA {
						d, inB = g.Lookup(int(ib), ia)
					} else {
						inB = g.Contains(int(ib), ia)
					}
					if inA && inB {
						continue
					}
					if !inA && !inB {
						d = vec.L2Sqr(rowA, data.Row(int(ib)))
						comps++
					}
					if !inA {
						g.Insert(int(ia), ib, d)
					}
					if !inB {
						g.Insert(int(ib), ia, d)
					}
				}
			}
		}
		distComps.Add(comps)
	})
	return distComps.Load()
}

// buildAgainstReference builds a graph with cfg and, in every round, runs
// refineReference from the graph the round started with on the round's
// labels; the two graphs must agree in every id and distance bit. It returns
// the build's DistComps and what the reference counted for the same build.
func buildAgainstReference(t testing.TB, data *vec.Matrix, cfg GraphConfig) (got, want int64) {
	t.Helper()
	kappa := min(cfg.Kappa, data.N-1)
	k0 := max(1, data.N/cfg.Xi)
	prev, want := knngraph.RandomN(data, kappa, cfg.Seed, cfg.Workers)
	cfg.OnRound = func(round int, g *knngraph.Graph, labels []int) {
		want += refineReference(data, prev, labels, k0, cfg.Workers)
		if diff := firstGraphDiff(prev, g); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
		prev = g.Clone()
	}
	_, st, err := BuildGraphWithStats(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.DistComps, want
}

// TestRefineMatchesReference pins refine to the all-pairs scan: the same
// graph bits at every round, on byte-valued (SIFTLike) and real-valued
// (GloVeLike, Uniform) corpora, τ 1–12 and 1–3 workers. ξ=120 puts more than
// 64 members in a cluster, so bit rows span several words, and n=6 with κ=9
// holds every other sample in every list. Distances are never computed more
// often than the reference computes them, and as often in a build whose one
// round has no earlier round to skip.
func TestRefineMatchesReference(t *testing.T) {
	corpora := []struct {
		name string
		data *vec.Matrix
	}{
		{"sift", dataset.SIFTLike(400, 41)},
		{"glove", dataset.GloVeLike(400, 42)},
		{"uniform", dataset.Uniform(400, 12, 43)},
	}
	shapes := []struct{ kappa, xi int }{{8, 25}, {10, 120}}
	for _, c := range corpora {
		for _, sh := range shapes {
			for _, tau := range []int{1, 3, 8, 12} {
				for _, workers := range []int{1, 2, 3} {
					name := fmt.Sprintf("%s/kappa%d-xi%d/tau%d/workers%d", c.name, sh.kappa, sh.xi, tau, workers)
					t.Run(name, func(t *testing.T) {
						cfg := GraphConfig{Kappa: sh.kappa, Xi: sh.xi, Tau: tau, Seed: 44, Workers: workers}
						got, want := buildAgainstReference(t, c.data, cfg)
						checkComps(t, cfg, got, want)
					})
				}
			}
		}
	}
	for _, tau := range []int{1, 3} {
		cfg := GraphConfig{Kappa: 9, Xi: 2, Tau: tau, Seed: 45, Workers: 2}
		got, want := buildAgainstReference(t, dataset.Uniform(6, 3, 46), cfg)
		checkComps(t, cfg, got, want)
	}
}

// checkComps holds a build's distance count to the reference's: never
// above it, and equal when a single round leaves nothing to skip.
func checkComps(t *testing.T, cfg GraphConfig, got, want int64) {
	t.Helper()
	if got > want || (cfg.Tau == 1 && got != want) {
		t.Fatalf("%+v: %d distances computed, the reference computes %d", cfg, got, want)
	}
}

// TestRefineHalvesDistances: at the benchmark's offline shape most
// co-clustered pairs met in an earlier round, so refinement computes well
// under the reference's count.
func TestRefineHalvesDistances(t *testing.T) {
	data := dataset.SIFTLike(1000, 47)
	cfg := GraphConfig{Kappa: 20, Xi: 50, Tau: 8, Seed: 48, Workers: 2}
	got, want := buildAgainstReference(t, data, cfg)
	if float64(got) > 0.6*float64(want) {
		t.Fatalf("%d distances computed, the reference computes %d", got, want)
	}
}

// FuzzRefineEquivalence drives the reference comparison from arbitrary
// small shapes. Values are quantised to four levels, so equal distances —
// ties in list order and offers equal to a tail — are common.
func FuzzRefineEquivalence(f *testing.F) {
	f.Add(uint16(200), uint8(8), uint8(6), uint8(20), uint8(4), int64(1))
	f.Add(uint16(300), uint8(3), uint8(12), uint8(100), uint8(6), int64(2))
	f.Add(uint16(5), uint8(2), uint8(8), uint8(1), uint8(3), int64(3))
	f.Fuzz(func(t *testing.T, n uint16, d, kappa, xi, tau uint8, seed int64) {
		data := dataset.Uniform(2+int(n)%300, 1+int(d)%16, seed)
		for i, x := range data.Data {
			data.Data[i] = float32(math.Floor(float64(x) * 4))
		}
		cfg := GraphConfig{
			Kappa:   1 + int(kappa)%24,
			Xi:      1 + int(xi)%150,
			Tau:     1 + int(tau)%10,
			Seed:    seed,
			Workers: 1 + int(uint64(seed)%3),
		}
		got, want := buildAgainstReference(t, data, cfg)
		checkComps(t, cfg, got, want)
	})
}
