package core

import (
	"fmt"
	"gkmeans/internal/splitmix"
	"runtime"
	"time"

	"gkmeans/internal/knngraph"
	"gkmeans/internal/nndescent"
	"gkmeans/internal/vec"
)

// Graph builder names accepted by GraphConfig.Builder.
const (
	BuilderGKMeans   = "gkmeans"   // the paper's intertwined process (Alg. 3); the default
	BuilderNNDescent = "nndescent" // the KGraph baseline (Dong et al., WWW 2011)
)

// saltRounds tags the stream that draws the per-round clustering seeds of
// BuildGraph, decorrelating it from every other derivation of cfg.Seed.
const saltRounds uint64 = 0x524e4453 // "RNDS"

// GraphConfig controls the intertwined k-NN graph construction (Alg. 3).
// The paper's defaults (§4.4): Tau=10, Xi=50, Kappa=50; Tau up to 32 when
// the graph is built for ANN search rather than clustering.
type GraphConfig struct {
	Kappa   int // neighbours per node (κ); <=0 selects 50
	Xi      int // target cluster size for the refinement clusters (ξ); <=0 selects 50
	Tau     int // construction rounds (τ); <=0 selects 10 (nndescent: its own 30-round cap)
	Seed    int64
	Workers int // most goroutines a build keeps busy (round trees, init, refinement, NN-Descent joins); <=0 selects GOMAXPROCS

	// Builder selects the construction algorithm: BuilderGKMeans (also the
	// "" default) or BuilderNNDescent. Both honour Seed, Kappa, Tau and
	// Workers and produce worker-count-independent output; Xi only applies
	// to the gkmeans builder.
	Builder string

	// OnRound, when non-nil, observes each round: the round number t
	// (1-based), the graph after refinement, and the clustering used for
	// the round. Fig. 2 of the paper is generated from this hook. The
	// nndescent builder keeps its neighbour lists private until the build
	// finishes, so it invokes the hook with a nil graph and nil labels.
	OnRound func(t int, g *knngraph.Graph, labels []int)

	// Interrupt, when non-nil, is polled before every construction round;
	// a non-nil return aborts the build with that error, once the 2M trees
	// already growing ahead have finished. Context cancellation is plumbed
	// through this hook.
	Interrupt func() error
}

// GraphStats reports the work a graph build performed, for benchmarks and
// the CI perf trajectory. When a build is aborted by Interrupt the stats
// returned beside the error describe the rounds that completed.
type GraphStats struct {
	Builder string // resolved builder name
	Rounds  int    // construction rounds actually run
	// DistComps counts the distances actually computed to update the graph:
	// random initialisation plus in-cluster refinement for the gkmeans
	// builder, initialisation plus local joins for nndescent. Refinement
	// computes a pair's distance at most once per build, however many
	// rounds put the pair in one cluster, and not at all when either
	// endpoint already stores it. The gkmeans builder's per-round clustering
	// passes (2M tree and graph-supported epoch) are not counted here;
	// TreeTime and EpochTime time them.
	DistComps int64
	// Where the gkmeans builder's round loop spent its wall time, summed
	// over rounds: waiting for the round's 2M tree, the graph-supported
	// GK-means epoch, and in-cluster refinement. With more than one worker
	// the trees grow ahead on idle lanes, so TreeTime is the tree's share of
	// the critical path, not its CPU time; on one worker the two are equal.
	// OnRound is excluded; the random initial graph is the remainder. Zero
	// for nndescent.
	TreeTime, EpochTime, RefineTime time.Duration

	peakLanes int // most lanes busy at once in a gkmeans build; never above Workers
}

// BuildGraph constructs an approximate k-NN graph by the paper's
// self-evolving process (Alg. 3): starting from a random graph, each round
// (1) runs one GK-means pass that partitions the data into clusters of
// roughly ξ members using the current graph, then (2) exhaustively compares
// samples *within* each cluster and feeds closer pairs back into the graph.
// Cluster structure and graph quality improve alternately (Fig. 3).
// GraphConfig.Builder swaps in the NN-Descent baseline instead.
func BuildGraph(data *vec.Matrix, cfg GraphConfig) (*knngraph.Graph, error) {
	g, _, err := BuildGraphWithStats(data, cfg)
	return g, err
}

// BuildGraphWithStats is BuildGraph plus work counters.
func BuildGraphWithStats(data *vec.Matrix, cfg GraphConfig) (*knngraph.Graph, GraphStats, error) {
	switch cfg.Builder {
	case "", BuilderGKMeans:
		return buildIntertwined(data, cfg)
	case BuilderNNDescent:
		return buildNNDescent(data, cfg)
	default:
		return nil, GraphStats{}, fmt.Errorf("core: unknown graph builder %q (want %q or %q)",
			cfg.Builder, BuilderGKMeans, BuilderNNDescent)
	}
}

// buildIntertwined is Alg. 3, the paper's standard configuration.
func buildIntertwined(data *vec.Matrix, cfg GraphConfig) (_ *knngraph.Graph, stats GraphStats, _ error) {
	stats.Builder = BuilderGKMeans
	n := data.N
	if n < 2 {
		return nil, stats, fmt.Errorf("core: BuildGraph needs at least 2 samples, got %d", n)
	}
	kappa := cfg.Kappa
	if kappa <= 0 {
		kappa = 50
	}
	if kappa >= n {
		kappa = n - 1
	}
	xi := cfg.Xi
	if xi <= 0 {
		xi = 50
	}
	tau := cfg.Tau
	if tau <= 0 {
		tau = 10
	}
	k0 := n / xi // Alg. 3 line 5
	if k0 < 1 {
		k0 = 1
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Per-round clustering seeds come from a stream salted away from the
	// initial-graph streams derived from the same cfg.Seed inside RandomN.
	// The seed varies per round so the 2M tree produces a fresh partition
	// each time; diversity across rounds is what lets the union of
	// in-cluster comparisons cover true neighbourhoods. The trees read no
	// graph, so they grow ahead of the rounds on idle lanes.
	rng := splitmix.New(cfg.Seed, saltRounds)
	seeds := make([]int64, tau)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	trees := newRoundTrees(data, k0, seeds, workers)
	defer func() {
		trees.stop()
		stats.peakLanes = trees.peak
	}()

	// Alg. 3 line 4: random initial graph.
	var g *knngraph.Graph
	trees.wide(func(w int) { g, stats.DistComps = knngraph.RandomN(data, kappa, cfg.Seed, w) })
	// Every round's labels, τ·n·4 B by the last round: refinement skips the
	// pairs that already shared a cluster. The builder's own copy, so an
	// OnRound hook that keeps or edits its labels cannot change it.
	rounds := make([][]int32, 0, tau)
	for t := 0; t < tau; t++ {
		if cfg.Interrupt != nil {
			if err := cfg.Interrupt(); err != nil {
				return nil, stats, err
			}
		}
		waitStart := time.Now()
		labels, err := trees.wait(t)
		stats.TreeTime += time.Since(waitStart)
		if err != nil {
			return nil, stats, fmt.Errorf("core: BuildGraph round %d: 2M tree: %w", t+1, err)
		}
		// Line 7: one GK-means pass (the inner iteration count is fixed to
		// 1, §4.5) from the round's tree.
		trees.add(1)
		res, err := Cluster(data, g, Config{K: k0, MaxIter: 1, Seed: seeds[t], InitLabels: labels})
		trees.add(-1)
		if err != nil {
			return nil, stats, fmt.Errorf("core: BuildGraph round %d: %w", t+1, err)
		}
		stats.EpochTime += res.IterTime
		refineStart := time.Now()
		cur := make([]int32, n)
		for i, l := range res.Labels {
			cur[i] = int32(l)
		}
		rounds = append(rounds, cur)
		trees.wide(func(w int) { stats.DistComps += refine(data, g, rounds, k0, w) })
		stats.RefineTime += time.Since(refineStart)
		stats.Rounds = t + 1
		if cfg.OnRound != nil {
			cfg.OnRound(t+1, g, res.Labels)
		}
	}
	return g, stats, nil
}

// buildNNDescent dispatches to the KGraph baseline builder, mapping the
// shared knobs: Tau, when set, caps the NN-Descent rounds (its own
// δ-termination usually stops earlier); Xi has no meaning there.
func buildNNDescent(data *vec.Matrix, cfg GraphConfig) (*knngraph.Graph, GraphStats, error) {
	stats := GraphStats{Builder: BuilderNNDescent}
	kappa := cfg.Kappa
	if kappa <= 0 {
		kappa = 50
	}
	var onRound func(round, updates int)
	if cfg.OnRound != nil {
		hook := cfg.OnRound
		onRound = func(round, _ int) { hook(round, nil, nil) }
	}
	g, ns, err := nndescent.BuildWithStats(data, nndescent.Config{
		Kappa:     kappa,
		MaxRounds: cfg.Tau,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		OnRound:   onRound,
		Interrupt: cfg.Interrupt,
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Rounds = ns.Rounds
	stats.DistComps = ns.DistComps
	return g, stats, nil
}
