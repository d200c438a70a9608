package bench

import (
	"fmt"
	"time"

	"gkmeans/internal/bkm"
	"gkmeans/internal/closure"
	"gkmeans/internal/core"
	"gkmeans/internal/dataset"
	"gkmeans/internal/kmeans"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/metrics"
	"gkmeans/internal/nndescent"
	"gkmeans/internal/vec"
)

// Method names accepted by Run — the paper's comparison set (§5): the
// methods of Methods() and fig5Methods(), which include Table 2's three.
const (
	MKMeans    = "k-means"         // Lloyd [5]
	MBKM       = "BKM"             // boost k-means [16]
	MMiniBatch = "Mini-Batch"      // Sculley [20]
	MClosure   = "closure k-means" // Wang et al. [27]
	MGKMeans   = "GK-means"        // Alg. 2 + Alg. 3 (this paper)
	MKGraphGK  = "KGraph+GK-means" // Alg. 2 on an NN-Descent graph
)

// Methods returns the method set of the paper's scalability experiments
// (Fig. 6/7), in presentation order.
func Methods() []string {
	return []string{MMiniBatch, MClosure, MKMeans, MBKM, MGKMeans}
}

// RunConfig controls a unified method run.
type RunConfig struct {
	K     int
	Iters int
	Seed  int64
	Trace bool
	Kappa int // graph parameters for the GK-means family
	Xi    int
	Tau   int
}

func (c RunConfig) kappa() int {
	if c.Kappa <= 0 {
		return 20
	}
	return c.Kappa
}
func (c RunConfig) xi() int {
	if c.Xi <= 0 {
		return 50
	}
	return c.Xi
}
func (c RunConfig) tau() int {
	if c.Tau <= 0 {
		return 8
	}
	return c.Tau
}

// RunResult is the unified outcome used by every sweep.
type RunResult struct {
	Labels     []int
	Centroids  *vec.Matrix
	Distortion float64
	InitTime   time.Duration // initialisation incl. graph construction
	IterTime   time.Duration
	History    []kmeans.IterStat
	Recall     float64 // graph recall for the GK-means family (when computed)
}

// Run dispatches one clustering method under a common configuration. For
// the GK-means family, graph construction counts into InitTime (the paper's
// Table 2 reports it the same way).
func Run(method string, data *vec.Matrix, cfg RunConfig) (*RunResult, error) {
	switch method {
	case MKMeans:
		res, err := kmeans.Lloyd(data, kmeans.Config{
			K: cfg.K, MaxIter: cfg.Iters, Seed: cfg.Seed, Trace: cfg.Trace, PlusPlus: false,
		})
		return wrap(data, res, err)
	case MBKM:
		res, err := bkm.Cluster(data, bkm.Config{
			K: cfg.K, MaxIter: cfg.Iters, Seed: cfg.Seed, Trace: cfg.Trace,
		})
		return wrap(data, res, err)
	case MMiniBatch:
		res, err := kmeans.MiniBatch(data, kmeans.MiniBatchConfig{
			Config:    kmeans.Config{K: cfg.K, MaxIter: cfg.Iters, Seed: cfg.Seed, Trace: cfg.Trace},
			BatchSize: 1024,
		})
		return wrap(data, res, err)
	case MClosure:
		res, err := closure.Cluster(data, closure.Config{
			K: cfg.K, MaxIter: cfg.Iters, Seed: cfg.Seed, Trace: cfg.Trace,
			LeafSize: cfg.xi(),
		})
		return wrap(data, res, err)
	case MGKMeans:
		start := time.Now()
		g, err := core.BuildGraph(data, core.GraphConfig{
			Kappa: cfg.kappa(), Xi: cfg.xi(), Tau: cfg.tau(), Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return runOnGraph(data, g, time.Since(start), cfg)
	case MKGraphGK:
		start := time.Now()
		g, err := nndescent.Build(data, nndescent.Config{Kappa: cfg.kappa(), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return runOnGraph(data, g, time.Since(start), cfg)
	default:
		return nil, fmt.Errorf("bench: unknown method %q", method)
	}
}

func runOnGraph(data *vec.Matrix, g *knngraph.Graph, graphTime time.Duration, cfg RunConfig) (*RunResult, error) {
	res, err := core.Cluster(data, g, core.Config{
		K: cfg.K, MaxIter: cfg.Iters, Seed: cfg.Seed, Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	out, err := wrap(data, res.Result, nil)
	if err != nil {
		return nil, err
	}
	out.InitTime += graphTime
	// Shift traced timestamps so elapsed includes graph construction (the
	// distortion-vs-time plots of Fig. 5 include all setup cost).
	for i := range out.History {
		out.History[i].Elapsed += graphTime
	}
	out.Recall = sampledGraphRecall(data, g, 100, cfg.Seed)
	return out, nil
}

func wrap(data *vec.Matrix, res *kmeans.Result, err error) (*RunResult, error) {
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Labels:     res.Labels,
		Centroids:  res.Centroids,
		Distortion: metrics.AverageDistortion(data, res.Labels, res.Centroids),
		InitTime:   res.InitTime,
		IterTime:   res.IterTime,
		History:    res.History,
	}, nil
}

// sampledGraphRecall estimates graph recall@top1 on a node sample by
// scanning the full dataset for each sampled node's true nearest neighbour
// (the paper's VLAD10M protocol, §5.1).
func sampledGraphRecall(data *vec.Matrix, g *knngraph.Graph, samples int, seed int64) float64 {
	n := data.N
	if samples > n {
		samples = n
	}
	step := n / samples
	if step == 0 {
		step = 1
	}
	// Reduce the seed into [0, n) first: a negative seed would index below
	// zero, and int(seed) would truncate on 32-bit platforms.
	off := int(seed % int64(n))
	if off < 0 {
		off += n
	}
	hits, total := 0, 0
	for s := 0; s < samples; s++ {
		i := (s*step + off) % n
		row := data.Row(i)
		best, bestD := -1, float32(0)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if dd := vec.L2Sqr(row, data.Row(j)); best < 0 || dd < bestD {
				best, bestD = j, dd
			}
		}
		total++
		if g.Contains(i, int32(best)) {
			hits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Gen generates the named synthetic corpus at size n.
func Gen(name string, n int, seed int64) (*vec.Matrix, error) {
	info, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return info.Gen(n, seed), nil
}
