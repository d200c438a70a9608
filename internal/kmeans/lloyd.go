package kmeans

import (
	"gkmeans/internal/splitmix"
	"time"

	"gkmeans/internal/metrics"
	"gkmeans/internal/parallel"
	"gkmeans/internal/vec"
)

// Lloyd runs the classic batch k-means of the paper's "k-means" baseline:
// assign every sample to its closest centroid, recompute centroids, repeat
// until no assignment changes or MaxIter is reached. The assignment step is
// the O(n·d·k) bottleneck the paper sets out to remove. With
// cfg.InitLabels the centroids start as that labelling's member means, and
// the first iteration's moves count changes against it.
func Lloyd(data *vec.Matrix, cfg Config) (*Result, error) {
	if err := cfg.check(data.N); err != nil {
		return nil, err
	}
	rng := splitmix.New(cfg.Seed)
	start := time.Now()
	labels := make([]int, data.N)
	for i := range labels {
		labels[i] = -1
	}
	var centroids *vec.Matrix
	switch {
	case cfg.InitLabels != nil:
		copy(labels, cfg.InitLabels)
		centroids = vec.NewMatrix(cfg.K, data.Dim)
		updateCentroids(data, labels, centroids, &rng)
	case cfg.PlusPlus:
		centroids = PlusPlusSeed(data, cfg.K, &rng)
	default:
		centroids = RandomSeed(data, cfg.K, &rng)
	}
	initTime := time.Since(start)
	res := &Result{Labels: labels, Centroids: centroids, K: cfg.K, InitTime: initTime}
	iterStart := time.Now()
	for iter := 0; iter < cfg.maxIter(); iter++ {
		moves := assignNearest(data, centroids, labels, cfg.Workers)
		updateCentroids(data, labels, centroids, &rng)
		res.Iters = iter + 1
		if cfg.Trace {
			res.History = append(res.History, IterStat{
				Iter:       iter + 1,
				Distortion: metrics.AverageDistortion(data, labels, centroids),
				Moves:      moves,
				Elapsed:    initTime + time.Since(iterStart),
			})
		}
		if moves == 0 {
			break
		}
	}
	res.IterTime = time.Since(iterStart)
	return res, nil
}

// assignNearest relabels every sample with its closest centroid and returns
// the number of label changes. Parallel across samples.
func assignNearest(data *vec.Matrix, centroids *vec.Matrix, labels []int, workers int) int {
	chunkMoves := make([]int, data.N) // one slot per chunk head
	parallel.For(data.N, workers, func(lo, hi int) {
		m := 0
		for i := lo; i < hi; i++ {
			best, _ := vec.NearestRow(centroids, data.Row(i))
			if best != labels[i] {
				labels[i] = best
				m++
			}
		}
		chunkMoves[lo] = m
	})
	total := 0
	for _, m := range chunkMoves {
		total += m
	}
	return total
}

// updateCentroids recomputes centroids as member means. An empty cluster is
// repaired by reseeding it on the sample farthest from its centroid, the
// standard Lloyd rescue that keeps k clusters alive.
func updateCentroids(data *vec.Matrix, labels []int, centroids *vec.Matrix, rng *splitmix.Stream) {
	k := centroids.N
	d := centroids.Dim
	sums := make([]float64, k*d)
	counts := make([]int, k)
	for i, l := range labels {
		counts[l]++
		row := data.Row(i)
		base := l * d
		for j, v := range row {
			sums[base+j] += float64(v)
		}
	}
	var empty []int
	for r := 0; r < k; r++ {
		if counts[r] == 0 {
			empty = append(empty, r)
			continue
		}
		inv := 1 / float64(counts[r])
		row := centroids.Row(r)
		base := r * d
		for j := range row {
			row[j] = float32(sums[base+j] * inv)
		}
	}
	for _, r := range empty {
		reseedEmpty(data, labels, centroids, counts, r, rng)
	}
}

// reseedEmpty moves centroid r onto the sample farthest from its current
// centroid among a random probe set, and reassigns that sample.
func reseedEmpty(data *vec.Matrix, labels []int, centroids *vec.Matrix, counts []int, r int, rng *splitmix.Stream) {
	probes := 64
	if probes > data.N {
		probes = data.N
	}
	worst, worstD := -1, float32(-1)
	for p := 0; p < probes; p++ {
		i := rng.Intn(data.N)
		if counts[labels[i]] <= 1 {
			continue // do not empty another cluster
		}
		if d := vec.L2Sqr(data.Row(i), centroids.Row(labels[i])); d > worstD {
			worst, worstD = i, d
		}
	}
	if worst < 0 {
		return
	}
	counts[labels[worst]]--
	copy(centroids.Row(r), data.Row(worst))
	labels[worst] = r
	counts[r] = 1
}
