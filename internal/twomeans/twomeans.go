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
// visit, and one two-centre distance (vec.L2Sqr2) for the equal-size cut —
// about 10 at the default 8 epochs, on each of the ≈log₂k levels a sample
// passes through. That is O(d·n·log k), but not small: at n=2500, k=50 a
// tree costs a few graph-supported GK-means epochs.
//
// The tree runs on up to Config.Workers goroutines with the labels of one.
// Which node is popped next, and every node's size, depend only on (n, k),
// and a bisection of m members draws exactly 2(m−1) values from the one
// random stream, so a plan over sizes alone (plan) fixes each node's stream
// position before any bisection runs. A node then needs only its parent's
// cut, and disjoint subtrees bisect at once, each starting its stream with
// splitmix.Stream.Skip. BuildGraph grows a fresh tree every round, ahead of
// the rounds on idle lanes, at one worker each.
package twomeans

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"gkmeans/internal/splitmix"
	"gkmeans/internal/vec"
)

// Config controls the tree construction.
type Config struct {
	K           int
	Seed        int64
	BisectIters int // boost k-means epochs per bisection; <=0 selects 8
	// Workers is the most goroutines bisecting at once; <=0 selects
	// GOMAXPROCS. The labels are the same for every value.
	Workers int
}

// cluster is one node of the tree: the member indices of a cluster, a
// contiguous range of the permutation every bisection reorders in place.
type cluster struct {
	members []int
	draws   uint64      // stream position of its bisection: the draws of every node popped before it
	kids    [2]*cluster // its two halves once plan splits it; nil for a leaf
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
	if uint64(data.N) > math.MaxUint32 {
		return nil, fmt.Errorf("twomeans: n=%d exceeds the cut's 32-bit member ids", data.N)
	}
	iters := cfg.BisectIters
	if iters <= 0 {
		iters = 8
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	all := make([]int, data.N)
	for i := range all {
		all[i] = i
	}
	root, leaves, err := plan(all, cfg.K)
	if err != nil {
		return nil, err
	}
	if root.kids[0] != nil { // k = 1 bisects nothing and needs no scratch
		t := &tree{data: data, allNorm: data.Norms(), iters: iters, rng: splitmix.New(cfg.Seed),
			spare: make(chan *bisector, workers-1)}
		for range workers - 1 {
			t.spare <- nil // a spare worker; its scratch is made on first use
		}
		t.grow(root, newArena(data.N, data.Dim), newBisector(data.Dim))
		t.wg.Wait()
	}
	labels := make([]int, data.N)
	for id, c := range leaves {
		for _, i := range c.members {
			labels[i] = id
		}
	}
	return labels, nil
}

// plan runs Alg. 1's main loop (t grows from 1 to k clusters, the largest
// popped first) over sizes alone: every node is a range of all, its halves
// are the ranges its cut will fill, and its stream position is the sum of
// 2(m−1) over the nodes popped before it — one Perm(m) for the initial
// split and one for the visiting order, m−1 draws each. It returns the
// root and the k leaves in the heap's final order, which numbers them.
func plan(all []int, k int) (*cluster, []*cluster, error) {
	root := &cluster{members: all}
	h := &sizeHeap{root}
	var drawn uint64
	for h.Len() < k {
		top := heap.Pop(h).(*cluster)
		m := len(top.members)
		if m < 2 {
			// Cannot bisect a singleton; with k <= n this only happens when
			// every remaining cluster is a singleton, i.e. never before
			// reaching k. Guard anyway.
			return nil, nil, fmt.Errorf("twomeans: cannot split singleton cluster (k=%d, n=%d)", k, len(all))
		}
		top.draws = drawn
		drawn += 2 * uint64(m-1)
		half := (m + 1) / 2
		top.kids = [2]*cluster{{members: top.members[:half]}, {members: top.members[half:]}}
		heap.Push(h, top.kids[0])
		heap.Push(h, top.kids[1])
	}
	return root, *h, nil
}

// tree is one Cluster call's growth: what every bisection reads, and the
// spare workers a split may hand its second half to.
type tree struct {
	data    *vec.Matrix
	allNorm []float32 // ‖x‖² of every sample, computed once per tree
	iters   int
	rng     splitmix.Stream // the stream at position 0
	spare   chan *bisector  // one entry per idle worker: its scratch, nil until first used
	wg      sync.WaitGroup
}

// grow bisects c and every node under it, on w and on whatever spare
// workers free up: after each split the second half goes to a spare worker
// when there is one, the first stays here. Every bisection reads only its
// own members, arena range and stream position, so which worker runs it
// changes nothing.
func (t *tree) grow(c *cluster, a arena, w *bisector) {
	for c.kids[0] != nil {
		rng := t.rng
		rng.Skip(c.draws)
		w.bisect(t, c.members, a, &rng)
		first, second := a.cut(len(c.kids[0].members), t.data.Dim)
		if right := c.kids[1]; right.kids[0] != nil {
			select {
			case sw := <-t.spare:
				if sw == nil {
					sw = newBisector(t.data.Dim)
				}
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					t.grow(right, second, sw)
					t.spare <- sw
				}()
			default:
				t.grow(right, second, w)
			}
		}
		c, a = c.kids[0], first
	}
}

// arena is the scratch of one node, indexed by position in its member
// list. The root's arena is sized for every sample once; each split cuts
// its node's arena where it cuts the members, so a tree allocates it once,
// whatever the number of workers, and disjoint subtrees share no byte.
type arena struct {
	rows   []float32 // member rows gathered contiguously
	norms  []float32
	p      []float64 // S·x, S = D₀+D₁
	labels []uint8
	perm   []int    // the initial split's permutation, then the visiting order
	keys   []uint64 // the cut's sort keys (cutKey)
}

func newArena(n, dim int) arena {
	return arena{
		rows:   make([]float32, n*dim),
		norms:  make([]float32, n),
		p:      make([]float64, n),
		labels: make([]uint8, n),
		perm:   make([]int, n),
		keys:   make([]uint64, n),
	}
}

// cut splits the arena at position half, as the members are split.
func (a arena) cut(half, dim int) (arena, arena) {
	return arena{a.rows[:half*dim], a.norms[:half], a.p[:half], a.labels[:half], a.perm[:half], a.keys[:half]},
		arena{a.rows[half*dim:], a.norms[half:], a.p[half:], a.labels[half:], a.perm[half:], a.keys[half:]}
}

// bisector is one worker's per-bisection state: the two composites, their
// total and the centres, float64 like bkm's composites.
type bisector struct {
	comp   []float64 // D₀ | D₁ | S
	compSq [2]float64
	counts [2]int
	cents  []float32 // c₀ | c₁
}

func newBisector(dim int) *bisector {
	return &bisector{comp: make([]float64, 3*dim), cents: make([]float32, 2*dim)}
}

// cutKey orders a member for the equal-size cut: by diff, then by id. The
// high word is diff's bits mapped so that unsigned order is float order
// (−0 folded into +0, which compares equal to it), the low word is the id,
// so sorting the keys as integers gives the float comparison with its id
// tie break.
func cutKey(diff float32, id int) uint64 {
	if diff == 0 {
		diff = 0 // −0 → +0
	}
	b := math.Float32bits(diff)
	if b&(1<<31) != 0 {
		b = ^b
	} else {
		b |= 1 << 31
	}
	return uint64(b)<<32 | uint64(uint32(id))
}

// bisect splits members into two equally sized halves, in place: a short
// boost k-means run at k=2 finds the two-centre structure, then the
// equal-size adjustment of Alg. 1 line 9 rebalances on the signed distance
// difference. It makes exactly the moves bkm.Optimizer would at k=2 (same
// RNG draws, accumulation order and roundings; reference_test.go holds that
// implementation as the oracle) at one dot product per visit instead of
// two, or four for a mover.
func (w *bisector) bisect(t *tree, members []int, a arena, rng *splitmix.Stream) {
	m, dim := len(members), t.data.Dim
	// Random balanced initial split.
	perm := a.perm[:m]
	rng.PermInto(perm)
	for idx, i := range perm {
		a.labels[i] = uint8(idx % 2)
	}
	clear(w.comp)
	w.counts = [2]int{}
	for i, id := range members {
		row := a.rows[i*dim : (i+1)*dim]
		copy(row, t.data.Row(id))
		a.norms[i] = t.allNorm[id]
		l := int(a.labels[i])
		w.counts[l]++
		vec.AddWidened(w.comp[l*dim:(l+1)*dim], row)
	}
	total := w.comp[2*dim:]
	for j := range total {
		total[j] = w.comp[j] + w.comp[dim+j]
	}
	for i := 0; i < m; i++ {
		a.p[i] = vec.DotMixed(total, a.rows[i*dim:(i+1)*dim])
	}
	rng.PermInto(perm)
	for e := 0; e < t.iters; e++ {
		if w.epoch(a, perm, dim) == 0 {
			break
		}
	}
	// Equal-size adjustment: order members by how much closer they are to
	// centre u than to centre v, then cut in the middle.
	for r := 0; r < 2; r++ {
		inv := 1 / float64(w.counts[r])
		for j := 0; j < dim; j++ {
			w.cents[r*dim+j] = float32(w.comp[r*dim+j] * inv)
		}
	}
	cu, cv := w.cents[:dim], w.cents[dim:]
	keys := a.keys[:m]
	for i, id := range members {
		du, dv := vec.L2Sqr2(a.rows[i*dim:(i+1)*dim], cu, cv)
		keys[i] = cutKey(du-dv, id)
	}
	slices.Sort(keys)
	for i, key := range keys {
		members[i] = int(uint32(key))
	}
}

// epoch is one boost k-means pass over the node at k=2: each member, in the
// given order, moves to the other cluster when ΔI (Eqn. 3) is strictly
// positive. It returns the number of moves.
//
//gk:hotpath
func (w *bisector) epoch(a arena, order []int, dim int) int {
	// ‖D₀‖², ‖D₁‖² exactly from the composites: the incremental updates
	// below are exact in formula but round, so each pass starts clean.
	for r := range w.compSq {
		var sq float64
		for _, c := range w.comp[r*dim : (r+1)*dim] {
			sq += c * c
		}
		w.compSq[r] = sq
	}
	moves := 0
	for _, i := range order {
		u := int(a.labels[i])
		if w.counts[u] <= 1 {
			continue // never empty a cluster
		}
		v := 1 - u
		x := a.rows[i*dim : (i+1)*dim]
		nx := float64(a.norms[i])
		cu, cv := w.comp[u*dim:(u+1)*dim], w.comp[v*dim:(v+1)*dim]
		du := vec.DotMixed(cu, x)
		dv := a.p[i] - du
		nu, nv := float64(w.counts[u]), float64(w.counts[v])
		termU := (w.compSq[u]-2*du+nx)/(nu-1) - w.compSq[u]/nu
		delta := termU + (w.compSq[v]+2*dv+nx)/(nv+1) - w.compSq[v]/nv
		if delta > 0 {
			w.compSq[u] += nx - 2*du // ‖D_u−x‖² = ‖D_u‖² − 2D_u·x + ‖x‖²
			w.compSq[v] += nx + 2*dv // ‖D_v+x‖² = ‖D_v‖² + 2D_v·x + ‖x‖²
			vec.MoveComposite(cu, cv, x)
			w.counts[u]--
			w.counts[v]++
			a.labels[i] = uint8(v)
			moves++
		}
	}
	return moves
}
