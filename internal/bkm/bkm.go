// Package bkm implements boost k-means (paper §3.1, reference [16]): an
// incremental clustering optimiser driven by the explicit objective
// I = Σ_r D_r·D_r / n_r (Eqn. 2), where D_r is the composite (sum) vector of
// cluster r. One sample at a time, the optimiser evaluates the objective
// change ΔI of moving the sample to another cluster (Eqn. 3) and applies the
// best strictly positive move immediately.
//
// Maximising I is equivalent to minimising the k-means distortion because
// n·E = Σ‖x_i‖² − I with Σ‖x_i‖² constant, so distortion tracking is free.
//
// The Optimizer type exposes the move machinery directly; GK-means
// (internal/core) reuses it with graph-pruned candidate sets, which is the
// entire speed-up of the paper.
package bkm

import (
	"fmt"
	"gkmeans/internal/splitmix"
	"time"

	"gkmeans/internal/kmeans"
	"gkmeans/internal/metrics"
	"gkmeans/internal/vec"
)

// Optimizer holds the incremental state of boost k-means over a fixed
// dataset and cluster count: per-cluster composite vectors D_r (float64 to
// survive millions of incremental updates), their squared norms, member
// counts, and the current labelling.
type Optimizer struct {
	Data   *vec.Matrix
	Labels []int
	K      int

	norms  []float32 // ‖x_i‖² per sample
	sumSq  float64   // Σ‖x_i‖²
	comp   []float64 // k×d composite vectors, row-major
	compSq []float64 // ‖D_r‖² per cluster
	counts []int
	dim    int

	// BestMove's scratch: the clusters it scores other than u, their
	// composites after u's, and the dots of those with the sample, from
	// one vec.DotMixedN call.
	vs     []int
	scored [][]float64
	dots   []float64
	// last holds the two dots of the move BestMove returned, so Move need
	// not recompute them; every Move clears it.
	last moveDots
}

// moveDots are D_u·x and D_v·x for moving sample i from cluster u to
// cluster v; valid when ok.
type moveDots struct {
	i, u, v int
	du, dv  float64
	ok      bool
}

// NewOptimizer builds the incremental state for the given initial labelling.
// labels is used in place (and mutated by Move); it must hold values in
// [0,k).
func NewOptimizer(data *vec.Matrix, labels []int, k int) (*Optimizer, error) {
	if len(labels) != data.N {
		return nil, fmt.Errorf("bkm: %d labels for %d samples", len(labels), data.N)
	}
	if k <= 0 {
		return nil, fmt.Errorf("bkm: k must be positive, got %d", k)
	}
	o := &Optimizer{
		Data:   data,
		Labels: labels,
		K:      k,
		norms:  data.Norms(),
		comp:   make([]float64, k*data.Dim),
		compSq: make([]float64, k),
		counts: make([]int, k),
		dim:    data.Dim,
		vs:     make([]int, 0, k),
		scored: make([][]float64, 0, k+1),
		dots:   make([]float64, k+1),
	}
	for _, nrm := range o.norms {
		o.sumSq += float64(nrm)
	}
	for i, l := range labels {
		if l < 0 || l >= k {
			return nil, fmt.Errorf("bkm: label %d of sample %d out of range [0,%d)", l, i, k)
		}
		o.counts[l]++
		vec.AddWidened(o.Composite(l), data.Row(i))
	}
	o.RefreshCompSq()
	return o, nil
}

// RefreshCompSq recomputes every ‖D_r‖² exactly. Incremental updates are
// exact in formula but accumulate float64 rounding over very long runs;
// Epoch calls this once per pass to wash any drift.
func (o *Optimizer) RefreshCompSq() {
	for r := 0; r < o.K; r++ {
		base := r * o.dim
		var s float64
		for j := 0; j < o.dim; j++ {
			s += o.comp[base+j] * o.comp[base+j]
		}
		o.compSq[r] = s
	}
}

// Composite returns cluster r's composite vector (aliasing internal state).
func (o *Optimizer) Composite(r int) []float64 {
	return o.comp[r*o.dim : (r+1)*o.dim]
}

// Count returns cluster r's current size.
func (o *Optimizer) Count(r int) int { return o.counts[r] }

// Objective returns I = Σ_r ‖D_r‖²/n_r (Eqn. 2) from cached state.
func (o *Optimizer) Objective() float64 {
	var obj float64
	for r := 0; r < o.K; r++ {
		if o.counts[r] > 0 {
			obj += o.compSq[r] / float64(o.counts[r])
		}
	}
	return obj
}

// Distortion returns the average distortion E = (Σ‖x‖² − I)/n (Eqn. 4).
func (o *Optimizer) Distortion() float64 {
	return metrics.DistortionFromObjective(o.sumSq, o.Objective(), o.Data.N)
}

// DeltaI evaluates Eqn. 3: the objective change of moving sample i from its
// current cluster to cluster v. It returns negative infinity for moves that
// would empty the source cluster, and 0 for v == current.
func (o *Optimizer) DeltaI(i, v int) float64 {
	u := o.Labels[i]
	if v == u {
		return 0
	}
	if o.counts[u] <= 1 {
		return negInf
	}
	x := o.Data.Row(i)
	nx := float64(o.norms[i])
	du := vec.DotMixed(o.Composite(u), x)
	dv := vec.DotMixed(o.Composite(v), x)
	nu, nv := float64(o.counts[u]), float64(o.counts[v])
	return (o.compSq[v]+2*dv+nx)/(nv+1) +
		(o.compSq[u]-2*du+nx)/(nu-1) -
		o.compSq[v]/nv - o.compSq[u]/nu
}

const negInf = -1e308

// BestMove scans the candidate clusters and returns the one maximising ΔI
// together with that ΔI. Candidates equal to the current cluster are
// skipped; moves that would empty the source are rejected. When candidates
// is nil every cluster is considered (plain boost k-means). The source
// term of Eqn. 3 is hoisted out of the loop, and the dots of u and of
// every candidate come from one vec.DotMixedN call, which loads the
// sample once per four composites. A Move of the returned cluster that
// follows reuses the two dots it needs. BestMove writes the optimizer's
// scratch, so like Move it needs the optimizer to itself.
func (o *Optimizer) BestMove(i int, candidates []int) (int, float64) {
	u := o.Labels[i]
	o.last.ok = false
	if o.counts[u] <= 1 {
		return u, 0
	}
	o.scored = append(o.scored[:0], o.Composite(u))
	o.vs = o.vs[:0]
	consider := func(v int) {
		if v != u {
			o.scored = append(o.scored, o.Composite(v))
			o.vs = append(o.vs, v)
		}
	}
	if candidates == nil {
		for v := 0; v < o.K; v++ {
			consider(v)
		}
	} else {
		for _, v := range candidates {
			consider(v)
		}
	}
	if len(o.scored) > len(o.dots) {
		o.dots = make([]float64, len(o.scored))
	}
	x := o.Data.Row(i)
	vec.DotMixedN(o.scored, x, o.dots)

	nx := float64(o.norms[i])
	du := o.dots[0]
	nu := float64(o.counts[u])
	termU := (o.compSq[u]-2*du+nx)/(nu-1) - o.compSq[u]/nu
	best, bestDelta, bestDot := u, 0.0, 0.0
	for j, v := range o.vs {
		dv := o.dots[j+1]
		nv := float64(o.counts[v])
		delta := termU + (o.compSq[v]+2*dv+nx)/(nv+1) - o.compSq[v]/nv
		if delta > bestDelta {
			best, bestDelta, bestDot = v, delta, dv
		}
	}
	if best != u {
		o.last = moveDots{i: i, u: u, v: best, du: du, dv: bestDot, ok: true}
	}
	return best, bestDelta
}

// Move reassigns sample i to cluster v, updating composites, counts and
// cached squared norms incrementally (exact identities, two dot products:
// the ones BestMove computed when this is the move it just returned).
func (o *Optimizer) Move(i, v int) {
	u := o.Labels[i]
	if u == v {
		return
	}
	x := o.Data.Row(i)
	cu, cv := o.Composite(u), o.Composite(v)
	du, dv := o.last.du, o.last.dv
	if !o.last.ok || o.last.i != i || o.last.u != u || o.last.v != v {
		du, dv = vec.DotMixed(cu, x), vec.DotMixed(cv, x)
	}
	o.last.ok = false
	nx := float64(o.norms[i])
	o.compSq[u] += nx - 2*du // ‖D_u−x‖² = ‖D_u‖² − 2D_u·x + ‖x‖²
	o.compSq[v] += nx + 2*dv // ‖D_v+x‖² = ‖D_v‖² + 2D_v·x + ‖x‖²
	vec.MoveComposite(cu, cv, x)
	o.counts[u]--
	o.counts[v]++
	o.Labels[i] = v
}

// Epoch performs one boost k-means pass: samples are visited in the given
// order (a permutation; nil means natural order) and each is moved to the
// candidate cluster with the highest strictly positive ΔI. candidatesFor
// restricts the clusters examined for a sample (nil means all clusters).
// It returns the number of accepted moves.
func (o *Optimizer) Epoch(order []int, candidatesFor func(i int) []int) int {
	moves := 0
	n := o.Data.N
	for idx := 0; idx < n; idx++ {
		i := idx
		if order != nil {
			i = order[idx]
		}
		var cands []int
		if candidatesFor != nil {
			cands = candidatesFor(i)
		}
		if v, delta := o.BestMove(i, cands); delta > 0 {
			o.Move(i, v)
			moves++
		}
	}
	o.RefreshCompSq()
	return moves
}

// Centroids materialises the current centroids from the composites.
func (o *Optimizer) Centroids() *vec.Matrix {
	c := vec.NewMatrix(o.K, o.dim)
	for r := 0; r < o.K; r++ {
		if o.counts[r] == 0 {
			continue
		}
		inv := 1 / float64(o.counts[r])
		row := c.Row(r)
		base := r * o.dim
		for j := range row {
			row[j] = float32(o.comp[base+j] * inv)
		}
	}
	return c
}

// Config controls a standalone boost k-means run.
type Config struct {
	K          int
	MaxIter    int   // <=0 selects 100
	Seed       int64 // shuffling and random initial partition
	Trace      bool
	InitLabels []int // optional initial labelling; copied, not mutated
}

// Cluster runs standalone boost k-means: random balanced initial partition
// (unless InitLabels is given), then full-candidate epochs until an epoch
// makes no move. This is the paper's "BKM" baseline — best distortion,
// O(n·k·d) per epoch.
func Cluster(data *vec.Matrix, cfg Config) (*kmeans.Result, error) {
	if cfg.K <= 0 || cfg.K > data.N {
		return nil, fmt.Errorf("bkm: invalid k=%d for n=%d", cfg.K, data.N)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	rng := splitmix.New(cfg.Seed)
	start := time.Now()
	labels := make([]int, data.N)
	if cfg.InitLabels != nil {
		if len(cfg.InitLabels) != data.N {
			return nil, fmt.Errorf("bkm: %d init labels for %d samples", len(cfg.InitLabels), data.N)
		}
		copy(labels, cfg.InitLabels)
	} else {
		// Balanced random partition: shuffle then deal round-robin, so no
		// cluster starts empty.
		perm := rng.Perm(data.N)
		for idx, i := range perm {
			labels[i] = idx % cfg.K
		}
	}
	o, err := NewOptimizer(data, labels, cfg.K)
	if err != nil {
		return nil, err
	}
	initTime := time.Since(start)
	res := &kmeans.Result{Labels: labels, K: cfg.K, InitTime: initTime}
	iterStart := time.Now()
	order := make([]int, data.N)
	for i := range order {
		order[i] = i
	}
	for iter := 0; iter < maxIter; iter++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		moves := o.Epoch(order, nil)
		res.Iters = iter + 1
		if cfg.Trace {
			res.History = append(res.History, kmeans.IterStat{
				Iter:       iter + 1,
				Distortion: o.Distortion(),
				Moves:      moves,
				Elapsed:    initTime + time.Since(iterStart),
			})
		}
		if moves == 0 {
			break
		}
	}
	res.IterTime = time.Since(iterStart)
	res.Centroids = o.Centroids()
	return res, nil
}
