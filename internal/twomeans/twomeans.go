// Package twomeans implements the two-means (2M) tree of paper §3.2
// (Alg. 1, reference [31]): a balanced hierarchical bisecting clusterer.
// Starting from one cluster holding everything, the largest cluster is
// repeatedly popped and bisected until k clusters exist. Each bisection runs
// a short boost k-means at k=2 (the enhancement the paper applies at Alg. 1
// step 8) and is then *adjusted to equal size* by splitting the members at
// the median of ‖x−c_u‖² − ‖x−c_v‖².
//
// Cost model, in d-wide kernels per member of a node: one dot product for
// S·x (S = D₀+D₁, the node's total, never changes inside the node, so
// D_v·x = S·x − D_u·x needs no second dot), one dot product per epoch
// visit, and two distances for the equal-size cut — 11 at the default 8
// epochs, on each of the ≈log₂k levels a sample passes through. That is
// O(d·n·log k), but not small: at n=2500, k=50, κ=20 a tree is ≈12 ms
// against ≈2 ms for a graph-supported GK-means epoch. BuildGraph grows a
// fresh tree every round; with more than one worker it grows them ahead
// of the rounds on idle lanes, but on one worker they still dominate it.
package twomeans

import (
	"container/heap"
	"fmt"
	"slices"

	"gkmeans/internal/splitmix"
	"gkmeans/internal/vec"
)

// Config controls the tree construction.
type Config struct {
	K           int
	Seed        int64
	BisectIters int // boost k-means epochs per bisection; <=0 selects 8
}

// cluster is one heap entry: the member indices of a current cluster.
type cluster struct {
	members []int
}

// sizeHeap is a max-heap of clusters ordered by member count.
type sizeHeap []*cluster

func (h sizeHeap) Len() int            { return len(h) }
func (h sizeHeap) Less(i, j int) bool  { return len(h[i].members) > len(h[j].members) }
func (h sizeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sizeHeap) Push(x interface{}) { *h = append(*h, x.(*cluster)) }
func (h *sizeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

// Cluster partitions data into k clusters with the 2M tree and returns the
// cluster label of every sample.
func Cluster(data *vec.Matrix, cfg Config) ([]int, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("twomeans: k must be positive, got %d", cfg.K)
	}
	if cfg.K > data.N {
		return nil, fmt.Errorf("twomeans: k=%d exceeds n=%d", cfg.K, data.N)
	}
	iters := cfg.BisectIters
	if iters <= 0 {
		iters = 8
	}
	rng := splitmix.New(cfg.Seed)
	var s *scratch // sized for the root at the first bisection; k=1 needs none
	all := make([]int, data.N)
	for i := range all {
		all[i] = i
	}
	h := &sizeHeap{{members: all}}
	heap.Init(h)
	// Alg. 1 main loop: t grows from 1 to k clusters.
	for h.Len() < cfg.K {
		top := heap.Pop(h).(*cluster)
		if len(top.members) < 2 {
			// Cannot bisect a singleton; with k <= n this only happens when
			// every remaining cluster is a singleton, i.e. never before
			// reaching k. Guard anyway.
			heap.Push(h, top)
			return nil, fmt.Errorf("twomeans: cannot split singleton cluster (k=%d, n=%d)", cfg.K, data.N)
		}
		if s == nil {
			s = newScratch(data)
		}
		left, right := s.bisect(top.members, iters, &rng)
		heap.Push(h, &cluster{members: left})
		heap.Push(h, &cluster{members: right})
	}
	labels := make([]int, data.N)
	for id, c := range *h {
		for _, i := range c.members {
			labels[i] = id
		}
	}
	return labels, nil
}

// scored is one member's signed distance difference for the balance cut.
type scored struct {
	member int
	diff   float32
}

// scratch is the arena one Cluster call's bisections share: every slice is
// sized for the root node once and resliced per node, so a tree allocates
// per node, not per member or per epoch. It belongs to the call — sharded
// builds run several trees at once.
type scratch struct {
	data    *vec.Matrix
	allNorm []float32 // ‖x‖² of every sample, computed once per tree

	// Node-local state, indexed by position in the node's member list.
	rows   []float32 // member rows gathered contiguously
	norms  []float32
	p      []float64 // S·x, S = D₀+D₁
	labels []uint8
	sc     []scored

	comp   []float64 // D₀ | D₁ | S, float64 like bkm's composites
	compSq [2]float64
	counts [2]int
	cents  []float32 // c₀ | c₁
}

func newScratch(data *vec.Matrix) *scratch {
	n, dim := data.N, data.Dim
	return &scratch{
		data:    data,
		allNorm: data.Norms(),
		rows:    make([]float32, n*dim),
		norms:   make([]float32, n),
		p:       make([]float64, n),
		labels:  make([]uint8, n),
		sc:      make([]scored, n),
		comp:    make([]float64, 3*dim),
		cents:   make([]float32, 2*dim),
	}
}

// bisect splits members into two equally sized halves, in place: a short
// boost k-means run at k=2 finds the two-centre structure, then the
// equal-size adjustment of Alg. 1 line 9 rebalances on the signed distance
// difference. It makes exactly the moves bkm.Optimizer would at k=2 (same
// RNG draws, accumulation order and roundings; reference_test.go holds that
// implementation as the oracle) at one dot product per visit instead of
// two, or four for a mover.
func (s *scratch) bisect(members []int, iters int, rng *splitmix.Stream) (left, right []int) {
	m, dim := len(members), s.data.Dim
	// Random balanced initial split.
	for idx, i := range rng.Perm(m) {
		s.labels[i] = uint8(idx % 2)
	}
	clear(s.comp)
	s.counts = [2]int{}
	for i, id := range members {
		row := s.rows[i*dim : (i+1)*dim]
		copy(row, s.data.Row(id))
		s.norms[i] = s.allNorm[id]
		l := int(s.labels[i])
		s.counts[l]++
		d := s.comp[l*dim : (l+1)*dim]
		for j, v := range row {
			d[j] += float64(v)
		}
	}
	total := s.comp[2*dim:]
	for j := range total {
		total[j] = s.comp[j] + s.comp[dim+j]
	}
	for i := 0; i < m; i++ {
		s.p[i] = vec.DotMixed(total, s.rows[i*dim:(i+1)*dim])
	}
	order := rng.Perm(m)
	for e := 0; e < iters; e++ {
		if s.epoch(order) == 0 {
			break
		}
	}
	// Equal-size adjustment: order members by how much closer they are to
	// centre u than to centre v, then cut in the middle.
	for r := 0; r < 2; r++ {
		inv := 1 / float64(s.counts[r])
		for j := 0; j < dim; j++ {
			s.cents[r*dim+j] = float32(s.comp[r*dim+j] * inv)
		}
	}
	cu, cv := s.cents[:dim], s.cents[dim:]
	sc := s.sc[:m]
	for i, id := range members {
		row := s.rows[i*dim : (i+1)*dim]
		sc[i] = scored{id, vec.L2Sqr(row, cu) - vec.L2Sqr(row, cv)}
	}
	slices.SortFunc(sc, func(a, b scored) int {
		if a.diff < b.diff {
			return -1
		}
		if a.diff > b.diff {
			return 1
		}
		return a.member - b.member // deterministic tie break
	})
	for i := range sc {
		members[i] = sc[i].member
	}
	half := (m + 1) / 2
	return members[:half], members[half:]
}

// epoch is one boost k-means pass over the node at k=2: each member, in the
// given order, moves to the other cluster when ΔI (Eqn. 3) is strictly
// positive. It returns the number of moves.
//
//gk:hotpath
func (s *scratch) epoch(order []int) int {
	dim := s.data.Dim
	// ‖D₀‖², ‖D₁‖² exactly from the composites: the incremental updates
	// below are exact in formula but round, so each pass starts clean.
	for r := range s.compSq {
		var sq float64
		for _, c := range s.comp[r*dim : (r+1)*dim] {
			sq += c * c
		}
		s.compSq[r] = sq
	}
	moves := 0
	for _, i := range order {
		u := int(s.labels[i])
		if s.counts[u] <= 1 {
			continue // never empty a cluster
		}
		v := 1 - u
		x := s.rows[i*dim : (i+1)*dim]
		nx := float64(s.norms[i])
		cu, cv := s.comp[u*dim:(u+1)*dim], s.comp[v*dim:(v+1)*dim]
		du := vec.DotMixed(cu, x)
		dv := s.p[i] - du
		nu, nv := float64(s.counts[u]), float64(s.counts[v])
		termU := (s.compSq[u]-2*du+nx)/(nu-1) - s.compSq[u]/nu
		delta := termU + (s.compSq[v]+2*dv+nx)/(nv+1) - s.compSq[v]/nv
		if delta > 0 {
			s.compSq[u] += nx - 2*du // ‖D_u−x‖² = ‖D_u‖² − 2D_u·x + ‖x‖²
			s.compSq[v] += nx + 2*dv // ‖D_v+x‖² = ‖D_v‖² + 2D_v·x + ‖x‖²
			for j, val := range x {
				cu[j] -= float64(val)
				cv[j] += float64(val)
			}
			s.counts[u]--
			s.counts[v]++
			s.labels[i] = uint8(v)
			moves++
		}
	}
	return moves
}
