package kmeans

import (
	"fmt"
	"gkmeans/internal/splitmix"
	"time"

	"gkmeans/internal/metrics"
	"gkmeans/internal/vec"
)

// MiniBatchConfig extends Config with the batch size of Sculley's web-scale
// k-means [20].
type MiniBatchConfig struct {
	Config
	BatchSize int // samples per mini batch; <=0 selects min(1024, n)
}

// MiniBatch implements Sculley's mini-batch k-means: each iteration samples
// a batch, assigns it against the current centroids and nudges each centroid
// towards its batch members with a per-centre learning rate 1/count. It is
// the paper's fastest-but-lowest-quality baseline (Fig. 5–7): the gradient
// updates may never see most of the data, so distortion stays high.
func MiniBatch(data *vec.Matrix, cfg MiniBatchConfig) (*Result, error) {
	if err := cfg.check(data.N); err != nil {
		return nil, err
	}
	if cfg.InitLabels != nil {
		return nil, fmt.Errorf("minibatch: InitLabels is a Lloyd option")
	}
	b := cfg.BatchSize
	if b <= 0 {
		b = 1024
	}
	if b > data.N {
		b = data.N
	}
	rng := splitmix.New(cfg.Seed)
	start := time.Now()
	var centroids *vec.Matrix
	if cfg.PlusPlus {
		centroids = PlusPlusSeed(data, cfg.K, &rng)
	} else {
		centroids = RandomSeed(data, cfg.K, &rng)
	}
	initTime := time.Since(start)
	counts := make([]int, cfg.K)
	batch := make([]int, b)
	assign := make([]int, b)
	res := &Result{K: cfg.K, Centroids: centroids, InitTime: initTime}
	iterStart := time.Now()
	for iter := 0; iter < cfg.maxIter(); iter++ {
		for i := range batch {
			batch[i] = rng.Intn(data.N)
		}
		for i, s := range batch {
			assign[i], _ = vec.NearestRow(centroids, data.Row(s))
		}
		for i, s := range batch {
			c := assign[i]
			counts[c]++
			eta := float32(1) / float32(counts[c])
			cRow := centroids.Row(c)
			sRow := data.Row(s)
			for j := range cRow {
				cRow[j] += eta * (sRow[j] - cRow[j])
			}
		}
		res.Iters = iter + 1
		if cfg.Trace {
			labels := finalAssign(data, centroids, cfg.Workers)
			res.History = append(res.History, IterStat{
				Iter:       iter + 1,
				Distortion: metrics.AverageDistortion(data, labels, centroids),
				Moves:      b,
				Elapsed:    initTime + time.Since(iterStart),
			})
		}
	}
	res.Labels = finalAssign(data, centroids, cfg.Workers)
	res.IterTime = time.Since(iterStart)
	if err := res.Validate(data.N); err != nil {
		return nil, fmt.Errorf("minibatch: %w", err)
	}
	return res, nil
}

// finalAssign labels every sample with its nearest centroid (one full pass;
// mini-batch only does this to report a clustering, not during training).
func finalAssign(data *vec.Matrix, centroids *vec.Matrix, workers int) []int {
	labels := make([]int, data.N)
	for i := range labels {
		labels[i] = -1
	}
	assignNearest(data, centroids, labels, workers)
	return labels
}
