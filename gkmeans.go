package gkmeans

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"gkmeans/internal/anns"
	"gkmeans/internal/bkm"
	"gkmeans/internal/core"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/metrics"
	"gkmeans/internal/vec"
)

// Matrix is an n×d row-major matrix of float32 samples.
type Matrix = vec.Matrix

// Graph is an approximate k-nearest-neighbour graph: one bounded, sorted
// neighbour list per sample.
type Graph = knngraph.Graph

// Neighbor is one entry of a neighbour list or a search result: a sample id
// and its squared Euclidean distance.
type Neighbor = knngraph.Neighbor

// NewMatrix allocates a zeroed n×d matrix.
func NewMatrix(n, d int) *Matrix { return vec.NewMatrix(n, d) }

// FromRows builds a matrix by copying equally sized rows.
func FromRows(rows [][]float32) *Matrix { return vec.FromRows(rows) }

// LoadFvecs reads up to maxN vectors from an fvecs file (the exchange
// format of SIFT1M/GIST1M and friends); maxN <= 0 reads everything.
func LoadFvecs(path string, maxN int) (*Matrix, error) {
	return dataset.LoadFvecsFile(path, maxN)
}

// SaveFvecs writes a matrix to an fvecs file.
func SaveFvecs(path string, m *Matrix) error { return dataset.SaveFvecsFile(path, m) }

// LoadBvecs reads up to maxN vectors from a bvecs file (the byte-vector
// format of SIFT1B), widening each byte to float32; maxN <= 0 reads
// everything.
func LoadBvecs(path string, maxN int) (*Matrix, error) {
	return dataset.LoadBvecsFile(path, maxN)
}

// LoadVectors reads up to maxN vectors from an fvecs or bvecs file,
// dispatching on the file extension (".bvecs" selects the byte format,
// anything else the float format). It is the loader behind every file-fed
// tool in this repository.
func LoadVectors(path string, maxN int) (*Matrix, error) {
	if strings.EqualFold(filepath.Ext(path), ".bvecs") {
		return LoadBvecs(path, maxN)
	}
	return LoadFvecs(path, maxN)
}

// IterStat is one entry of a traced clustering history.
type IterStat struct {
	Iter       int
	Distortion float64
	Moves      int
	Elapsed    time.Duration
}

// Result is the outcome of a clustering run.
type Result struct {
	// Labels assigns every sample a cluster id in [0,K).
	Labels []int
	// Centroids is the K×d centroid matrix.
	Centroids *Matrix
	// K is the number of clusters.
	K int
	// Iters is the number of optimisation epochs executed.
	Iters int
	// AvgCandidates is the mean number of distinct candidate clusters each
	// sample examined per epoch — the quantity the paper shows is ≪ k.
	AvgCandidates float64
	// Graph is the k-NN graph the clustering ran over (the index's own);
	// wrap it with NewIndex to reuse it over the same samples.
	Graph *Graph
	// GraphTime, InitTime and IterTime break down the wall clock:
	// graph construction, 2M-tree initialisation, optimisation epochs.
	GraphTime, InitTime, IterTime time.Duration
	// History is the per-epoch trace (only with WithTrace).
	History []IterStat
}

// Distortion returns the average distortion (mean squared sample-to-
// centroid distance, the paper's Eqn. 4) of the result on its data.
func (r *Result) Distortion(data *Matrix) float64 {
	return metrics.AverageDistortion(data, r.Labels, r.Centroids)
}

func fromCore(res *core.Result, g *Graph, graphTime time.Duration) *Result {
	out := &Result{
		Labels:        res.Labels,
		Centroids:     res.Centroids,
		K:             res.K,
		Iters:         res.Iters,
		AvgCandidates: res.AvgCandidates,
		Graph:         g,
		GraphTime:     graphTime,
		InitTime:      res.InitTime,
		IterTime:      res.IterTime,
	}
	for _, h := range res.History {
		out.History = append(out.History, IterStat(h))
	}
	return out
}

// BoostKMeans runs exhaustive boost k-means (no graph pruning) — the
// paper's highest-quality reference configuration. O(n·k·d) per epoch;
// use it as the quality yardstick at moderate k. Of the options it reads
// WithMaxIter, WithSeed and WithTrace.
func BoostKMeans(data *Matrix, k int, opts ...Option) (*Result, error) {
	cfg := applyOptions(config{}, opts)
	res, err := bkm.Cluster(data, bkm.Config{
		K: k, MaxIter: cfg.maxIter, Seed: cfg.seed, Trace: cfg.trace,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Labels: res.Labels, Centroids: res.Centroids, K: res.K,
		Iters: res.Iters, InitTime: res.InitTime, IterTime: res.IterTime,
	}
	for _, h := range res.History {
		out.History = append(out.History, IterStat(h))
	}
	return out, nil
}

// ExactNeighbors computes exact top-k neighbour ids for each query by brute
// force — ground truth for recall measurements. The scan runs on all
// available cores.
func ExactNeighbors(data, queries *Matrix, k int) [][]int32 {
	return anns.ExactTruth(data, queries, k, 0)
}

// Split partitions a matrix into a reference set and an evenly strided
// held-out query set — the standard way to derive an in-distribution ANN
// query set from one corpus.
func Split(m *Matrix, nQueries int) (data, queries *Matrix) {
	return dataset.Split(m, nQueries)
}

// Distortion computes the average distortion of an arbitrary labelling
// (centroids are recomputed from the labels).
func Distortion(data *Matrix, labels []int, k int) float64 {
	return metrics.DistortionFromLabels(data, labels, k)
}

// Validate checks that a result is structurally consistent with a dataset:
// non-nil labels with one in-range label per sample, and a non-nil K×d
// centroid matrix matching the data's dimensionality.
func (r *Result) Validate(data *Matrix) error {
	if r.Labels == nil {
		return fmt.Errorf("gkmeans: result has nil labels")
	}
	if len(r.Labels) != data.N {
		return fmt.Errorf("gkmeans: %d labels for %d samples", len(r.Labels), data.N)
	}
	if r.K <= 0 {
		return fmt.Errorf("gkmeans: invalid cluster count K=%d", r.K)
	}
	for i, l := range r.Labels {
		if l < 0 || l >= r.K {
			return fmt.Errorf("gkmeans: label %d of sample %d out of range [0,%d)", l, i, r.K)
		}
	}
	if r.Centroids == nil {
		return fmt.Errorf("gkmeans: result has nil centroids")
	}
	if r.Centroids.N != r.K {
		return fmt.Errorf("gkmeans: %d centroid rows for K=%d clusters", r.Centroids.N, r.K)
	}
	if r.Centroids.Dim != data.Dim {
		return fmt.Errorf("gkmeans: centroid dimensionality %d, data dimensionality %d",
			r.Centroids.Dim, data.Dim)
	}
	return nil
}
