// Package core implements the paper's contribution: GK-means (Alg. 2), the
// k-NN-graph driven fast k-means, and the intertwined graph construction
// process (Alg. 3) that builds the graph by repeatedly calling GK-means on
// its own intermediate clusterings.
//
// The speed-up: in every optimisation step a sample is compared only against
// the clusters in which its κ approximate nearest neighbours currently live
// (plus its own), instead of against all k clusters. Because neighbours
// overwhelmingly share clusters (paper Fig. 1), the candidate set is tiny —
// usually far below κ after deduplication — making the per-epoch cost
// O(n·κ·d), independent of k.
package core

import (
	"fmt"
	"gkmeans/internal/splitmix"
	"time"

	"gkmeans/internal/bkm"
	"gkmeans/internal/kmeans"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/metrics"
	"gkmeans/internal/twomeans"
	"gkmeans/internal/vec"
)

// Config controls one GK-means clustering run (Alg. 2).
type Config struct {
	K           int
	MaxIter     int   // optimisation epochs; <=0 selects 50
	Seed        int64 // 2M-tree initialisation and epoch shuffling
	Trace       bool  // record per-epoch distortion history
	InitLabels  []int // optional initial clustering; nil runs the 2M tree (Alg. 2 line 3)
	Traditional bool  // GK-means−: nearest-centroid moves instead of boost k-means ΔI moves
	Workers     int   // most goroutines the 2M tree bisects on; <=0 selects GOMAXPROCS (the result is the same for every value)

	// Interrupt, when non-nil, is polled before every optimisation epoch;
	// a non-nil return aborts the run with that error. Context cancellation
	// is plumbed through this hook.
	Interrupt func() error
	// OnEpoch, when non-nil, observes every completed epoch: the 1-based
	// epoch number and the epoch cap. Progress reporting hangs off it.
	OnEpoch func(epoch, maxIter int)
}

// Result extends the common clustering result with the statistic that
// demonstrates the paper's point: how many distinct clusters a sample
// actually had to examine per epoch (≪ k, and ≤ κ).
type Result struct {
	*kmeans.Result
	// AvgCandidates is the mean number of distinct candidate clusters
	// examined per sample per optimisation epoch (own cluster excluded).
	AvgCandidates float64
}

// Cluster runs GK-means over data with the support of the given k-NN graph.
// The graph may come from BuildGraph (Alg. 3, the standard configuration),
// from NN-Descent ("KGraph+GK-means"), or from any other construction — the
// algorithm only reads neighbour ids.
func Cluster(data *vec.Matrix, g *knngraph.Graph, cfg Config) (*Result, error) {
	n := data.N
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("core: invalid k=%d for n=%d", cfg.K, n)
	}
	if g == nil || g.N() != n {
		return nil, fmt.Errorf("core: graph size mismatch (graph %d, data %d)", graphN(g), n)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	rng := splitmix.New(cfg.Seed)

	// Alg. 2 line 3: initial clusters from the two-means tree.
	start := time.Now()
	var labels []int
	if cfg.InitLabels != nil {
		if len(cfg.InitLabels) != n {
			return nil, fmt.Errorf("core: %d init labels for %d samples", len(cfg.InitLabels), n)
		}
		labels = append([]int(nil), cfg.InitLabels...)
	} else {
		var err error
		labels, err = twomeans.Cluster(data, twomeans.Config{K: cfg.K, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("core: 2M-tree initialisation: %w", err)
		}
	}
	initTime := time.Since(start)

	if cfg.Traditional {
		return clusterTraditional(data, g, cfg, labels, initTime, maxIter, &rng)
	}
	return clusterBoost(data, g, cfg, labels, initTime, maxIter, &rng)
}

func graphN(g *knngraph.Graph) int {
	if g == nil {
		return -1
	}
	return g.N()
}

// candidateCollector gathers the distinct clusters of a sample's graph
// neighbours (Alg. 2 lines 7–11) with O(1) stamp-based deduplication.
type candidateCollector struct {
	seen  []int
	stamp int
	buf   []int
}

// newCandidateCollector sizes the buffer for the most clusters one list can
// name: no more than its κ neighbours, nor than the k clusters (a loaded
// graph's κ is only a cap on its lists, however large).
func newCandidateCollector(k, kappa int) *candidateCollector {
	c := &candidateCollector{seen: make([]int, k), buf: make([]int, 0, min(kappa, k)+1)}
	for i := range c.seen {
		c.seen[i] = -1
	}
	return c
}

// collect returns the distinct clusters of i's neighbours, excluding cur.
// The returned slice is reused between calls.
func (c *candidateCollector) collect(g *knngraph.Graph, labels []int, i, cur int) []int {
	c.stamp++
	c.buf = c.buf[:0]
	c.seen[cur] = c.stamp
	for _, nb := range g.Lists[i] {
		cl := labels[nb.ID]
		if c.seen[cl] != c.stamp {
			c.seen[cl] = c.stamp
			c.buf = append(c.buf, cl)
		}
	}
	return c.buf
}

// clusterBoost is the standard GK-means: boost k-means moves restricted to
// graph candidates.
func clusterBoost(data *vec.Matrix, g *knngraph.Graph, cfg Config, labels []int,
	initTime time.Duration, maxIter int, rng *splitmix.Stream) (*Result, error) {

	o, err := bkm.NewOptimizer(data, labels, cfg.K)
	if err != nil {
		return nil, err
	}
	res := &Result{Result: &kmeans.Result{Labels: labels, K: cfg.K, InitTime: initTime}}
	iterStart := time.Now()
	order := make([]int, data.N)
	for i := range order {
		order[i] = i
	}
	coll := newCandidateCollector(cfg.K, g.Kappa)
	var candTotal, candSamples int64
	for iter := 0; iter < maxIter; iter++ {
		if cfg.Interrupt != nil {
			if err := cfg.Interrupt(); err != nil {
				return nil, err
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		moves := 0
		for _, i := range order {
			cands := coll.collect(g, labels, i, labels[i])
			candTotal += int64(len(cands))
			candSamples++
			if len(cands) == 0 {
				continue
			}
			if v, delta := o.BestMove(i, cands); delta > 0 {
				o.Move(i, v)
				moves++
			}
		}
		o.RefreshCompSq()
		res.Iters = iter + 1
		if cfg.Trace {
			res.History = append(res.History, kmeans.IterStat{
				Iter:       iter + 1,
				Distortion: o.Distortion(),
				Moves:      moves,
				Elapsed:    initTime + time.Since(iterStart),
			})
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(iter+1, maxIter)
		}
		if moves == 0 {
			break
		}
	}
	res.IterTime = time.Since(iterStart)
	res.Centroids = o.Centroids()
	if candSamples > 0 {
		res.AvgCandidates = float64(candTotal) / float64(candSamples)
	}
	return res, nil
}

// clusterTraditional is GK-means− (paper §4.2, last paragraph): the same
// candidate pruning applied to traditional nearest-centroid k-means.
// Centroids are maintained incrementally across moves and recomputed
// exactly at the end of each epoch to wash float drift.
func clusterTraditional(data *vec.Matrix, g *knngraph.Graph, cfg Config, labels []int,
	initTime time.Duration, maxIter int, rng *splitmix.Stream) (*Result, error) {

	n := data.N
	centroids := metrics.Centroids(data, labels, cfg.K)
	counts := metrics.ClusterSizes(labels, cfg.K)
	res := &Result{Result: &kmeans.Result{Labels: labels, K: cfg.K, InitTime: initTime}}
	iterStart := time.Now()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	coll := newCandidateCollector(cfg.K, g.Kappa)
	var candTotal, candSamples int64
	for iter := 0; iter < maxIter; iter++ {
		if cfg.Interrupt != nil {
			if err := cfg.Interrupt(); err != nil {
				return nil, err
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		moves := 0
		for _, i := range order {
			cur := labels[i]
			cands := coll.collect(g, labels, i, cur)
			candTotal += int64(len(cands))
			candSamples++
			if len(cands) == 0 || counts[cur] <= 1 {
				continue
			}
			row := data.Row(i)
			best, bestD := cur, vec.L2Sqr(row, centroids.Row(cur))
			for _, c := range cands {
				if d := vec.L2Sqr(row, centroids.Row(c)); d < bestD {
					best, bestD = c, d
				}
			}
			if best != cur {
				moveCentroid(centroids, counts, row, cur, best)
				labels[i] = best
				moves++
			}
		}
		// Exact recomputation: incremental float32 centroid updates drift.
		centroids = metrics.Centroids(data, labels, cfg.K)
		res.Iters = iter + 1
		if cfg.Trace {
			res.History = append(res.History, kmeans.IterStat{
				Iter:       iter + 1,
				Distortion: metrics.AverageDistortion(data, labels, centroids),
				Moves:      moves,
				Elapsed:    initTime + time.Since(iterStart),
			})
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(iter+1, maxIter)
		}
		if moves == 0 {
			break
		}
	}
	res.IterTime = time.Since(iterStart)
	res.Centroids = centroids
	if candSamples > 0 {
		res.AvgCandidates = float64(candTotal) / float64(candSamples)
	}
	return res, nil
}

// moveCentroid updates the two affected centroids for moving x from u to v:
// c_u ← (n_u·c_u − x)/(n_u−1), c_v ← (n_v·c_v + x)/(n_v+1).
func moveCentroid(centroids *vec.Matrix, counts []int, x []float32, u, v int) {
	cu, cv := centroids.Row(u), centroids.Row(v)
	nu, nv := float32(counts[u]), float32(counts[v])
	for j := range x {
		cu[j] = (nu*cu[j] - x[j]) / (nu - 1)
		cv[j] = (nv*cv[j] + x[j]) / (nv + 1)
	}
	counts[u]--
	counts[v]++
}
