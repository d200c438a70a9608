// Package kmeans implements the k-means baselines of the paper's
// evaluation: Lloyd's k-means [5] with random or k-means++ [14] seeding,
// and Mini-Batch k-means [20]. Every clusterer in this repository returns
// the Result defined here, so the experiment harness can sweep methods
// uniformly.
package kmeans

import (
	"fmt"
	"time"

	"gkmeans/internal/vec"
)

// IterStat records the state of one clustering iteration for the
// distortion-versus-iteration and distortion-versus-time curves of Fig. 5.
type IterStat struct {
	Iter       int
	Distortion float64       // average distortion (Eqn. 4) after the iteration
	Moves      int           // samples that changed cluster in the iteration
	Elapsed    time.Duration // wall clock since clustering started
}

// Result is the output of any clustering run in this repository.
type Result struct {
	Labels    []int       // cluster id per sample
	Centroids *vec.Matrix // k × d centroid matrix
	K         int
	Iters     int        // iterations actually executed
	History   []IterStat // per-iteration trace (nil when tracing disabled)
	InitTime  time.Duration
	IterTime  time.Duration
}

// Validate checks structural sanity of a result against its input.
func (r *Result) Validate(n int) error {
	if len(r.Labels) != n {
		return fmt.Errorf("kmeans: %d labels for %d samples", len(r.Labels), n)
	}
	if r.Centroids == nil || r.Centroids.N != r.K {
		return fmt.Errorf("kmeans: centroid matrix shape mismatch")
	}
	for i, l := range r.Labels {
		if l < 0 || l >= r.K {
			return fmt.Errorf("kmeans: label %d of sample %d out of range [0,%d)", l, i, r.K)
		}
	}
	return nil
}

// Config carries the options shared by Lloyd and Mini-Batch.
type Config struct {
	K        int
	MaxIter  int   // maximum number of iterations; <=0 selects 100
	Seed     int64 // RNG seed for seeding/sampling
	Workers  int   // parallel workers; <=0 selects GOMAXPROCS
	Trace    bool  // record History (costs one distortion pass per iteration)
	PlusPlus bool  // k-means++ seeding instead of random distinct rows

	// InitLabels, when non-nil, starts Lloyd from the member means of this
	// labelling instead of seeding (as core.Config.InitLabels does for
	// GK-means); copied, not mutated. Lloyd only: MiniBatch rejects it.
	InitLabels []int
}

func (c *Config) maxIter() int {
	if c.MaxIter <= 0 {
		return 100
	}
	return c.MaxIter
}

func (c *Config) check(n int) error {
	if c.K <= 0 {
		return fmt.Errorf("kmeans: k must be positive, got %d", c.K)
	}
	if c.K > n {
		return fmt.Errorf("kmeans: k=%d exceeds n=%d", c.K, n)
	}
	if c.InitLabels != nil {
		if len(c.InitLabels) != n {
			return fmt.Errorf("kmeans: %d init labels for %d samples", len(c.InitLabels), n)
		}
		for i, l := range c.InitLabels {
			if l < 0 || l >= c.K {
				return fmt.Errorf("kmeans: init label %d of sample %d out of range [0,%d)", l, i, c.K)
			}
		}
	}
	return nil
}
