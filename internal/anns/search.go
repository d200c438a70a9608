// Package anns implements greedy best-first approximate nearest-neighbour
// search over a k-NN graph, backing the paper's §4.3 observation that the
// graph produced by Alg. 3 serves ANN search well (sub-3 ms queries at 0.9+
// recall on 100M SIFT in the authors' C++ setup).
//
// The search keeps a bounded pool of the ef closest candidates found so
// far, sorted by ascending distance, and repeatedly expands the closest
// unexpanded one through its graph neighbours. It terminates early: once
// the best unexpanded candidate can no longer improve the current top-topK
// results and a further patience window of expansions (max(topK, ef/4))
// has brought no top-topK improvement either, the remaining pool tail is
// abandoned. Easy queries — the common case — therefore stop well before
// the ef pool is exhausted, while hard queries keep expanding up to the
// full pool; ef remains the recall/latency knob (it bounds both pool
// admission and the worst-case expansion count), and topK anchors the
// termination window.
//
// The pool is seeded from fixed entries (spread evenly; every connected
// component still owns one) that the paper's 2M tree (Alg. 1) partitions once
// into groups of about four. With more entries than ef, a query scores only
// the groups that can still enter its pool.
//
// Two further hot-path structures keep the constant factor small: the
// symmetrised adjacency is a flat CSR layout (one offsets array and one
// neighbours array, no per-node slice headers to chase), and candidate
// distances are computed with an early-abandoning kernel that stops
// mid-vector once the partial sum proves the candidate cannot enter the
// pool.
//
// The rows are a vec.Rows, float32 or bytes (SIFT1B-style data, scanned with
// exact integer kernels). vec readies each query for them and makes both
// distance calls, so one loop serves both element types and returns the
// same results and counters on bytes as on their widened floats.
package anns

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"gkmeans/internal/checked"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/parallel"
	"gkmeans/internal/twomeans"
	"gkmeans/internal/vec"
)

// Searcher performs repeated queries against one dataset + graph pair. The
// dataset, adjacency and entry points are read-only after construction and
// every per-query mutable structure lives in a searchScratch recycled
// through a sync.Pool, so a single Searcher is safe for concurrent use from
// any number of goroutines.
type Searcher struct {
	rows  vec.Rows
	g     *knngraph.Graph
	entry []int32 // fixed, evenly spread entry points

	// The entries in groups: group g is grouped[groups[g].lo:hi], with centroid
	// cents.Row(g) and r2 its members' mean squared distance to it.
	grouped []int32
	groups  []entryGroup
	cents   *vec.Matrix

	// The symmetrised adjacency — each node's k-NN list plus the nodes that
	// list it (a raw k-NN graph is directed and splits into hard-to-escape
	// basins; reverse edges restore the connectivity greedy search needs) —
	// stored as a flat CSR: node i's neighbours are
	// neighbors[offsets[i]:offsets[i+1]]. One contiguous allocation instead
	// of n slice headers keeps expansion sequential in memory.
	offsets   []int32
	neighbors []int32

	// Cumulative hot-path counters, accumulated once per query (not per
	// candidate), exposed through Totals for serving metrics.
	nQueries  atomic.Uint64
	nDist     atomic.Uint64
	nExpanded atomic.Uint64

	// scratch recycles per-query state across searches and goroutines.
	scratch sync.Pool
}

// Stats counts the work one Search performed.
type Stats struct {
	// Dist is the number of distance-kernel evaluations: one per candidate
	// scored, abandoned or not, and one per entry-group centroid ranked.
	Dist int
	// Expanded is the number of pool candidates expanded through their
	// graph neighbours — the quantity the early-termination rule bounds.
	// On easy queries it stays well below ef; it has no hard ceiling
	// (eviction of an already-expanded candidate frees its pool slot for a
	// fresh one), but it never exceeds Dist.
	Expanded int
}

// searchScratch is the per-query mutable state: the stamp-based visited set
// and the bounded candidate pool. One scratch serves one search at a time;
// the pool hands each goroutine its own.
type searchScratch struct {
	// visited holds one stamp per dataset sample — the classic O(1)
	// visited-set fast path: membership is one array load, and "clearing"
	// between queries is a single stamp increment instead of an O(n) wipe.
	visited []int32
	stamp   int32
	pool    []candidate
	// q is the current query readied for the rows' kernels; it keeps its
	// buffers across queries, so readying one never allocates.
	q vec.Query
	// rank orders the entry groups by centroid distance to the current
	// query, one slot each (id is the group index).
	rank []candidate
}

// candidate is a pool entry during search.
type candidate struct {
	id       int32
	dist     float32
	expanded bool
}

// entryGroup is one cell of the partitioned entry set.
type entryGroup struct {
	lo, hi int32
	r2     float32
}

// entriesPerGroup sizes the entry groups (CHANGES.md, PR 25, has the sweep
// that chose it); groupSeed seeds the 2M tree that draws them.
const entriesPerGroup, groupSeed = 4, 0x2e

// NewSearcher builds a searcher with nEntry evenly spread distinct entry
// points (<=0 selects 16). A k-NN graph over strongly clustered data can be
// disconnected even after symmetrisation, and greedy search cannot cross
// between components — so the searcher additionally locates every connected
// component of the graph and guarantees at least one entry point inside
// each, making recall independent of component coverage. The entries are
// grouped in fours by the 2M tree, and a query with more entries than ef
// scores only the groups that can still enter its pool.
func NewSearcher(data *vec.Matrix, g *knngraph.Graph, nEntry int) (*Searcher, error) {
	return New(vec.RowsF32(data), g, nEntry)
}

// New is NewSearcher over rows of either element type. Over bytes the
// candidate distances are the exact integer kernels', and every query value
// must be an exact byte (an integer in [0,255]): Search panics otherwise,
// the same contract as a dimension mismatch.
func New(rows vec.Rows, g *knngraph.Graph, nEntry int) (*Searcher, error) {
	s, n := &Searcher{rows: rows, g: g}, rows.N
	if g.N() != n {
		return nil, fmt.Errorf("anns: graph has %d nodes for %d samples", g.N(), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("anns: empty dataset")
	}
	// Ids are int32 end to end (graph lists, CSR, results); a larger dataset
	// cannot be addressed and must be rejected, not truncated.
	if int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("anns: dataset has %d rows; ids are int32", n)
	}
	if nEntry <= 0 {
		nEntry = 16
	}
	if nEntry > n {
		nEntry = n
	}
	s.scratch.New = func() any {
		return &searchScratch{visited: make([]int32, n), rank: make([]candidate, len(s.groups))}
	}
	if err := s.buildCSR(); err != nil {
		return nil, err
	}
	// floor(i·n/nEntry) is strictly increasing when nEntry <= n, so the
	// entries are nEntry distinct ids spread evenly across the id range —
	// a stride-and-modulo scheme can wrap onto already-covered ids and
	// silently under-fill the entry set.
	s.entry = make([]int32, 0, nEntry)
	for i := 0; i < nEntry; i++ {
		s.entry = append(s.entry, int32(int64(i)*int64(n)/int64(nEntry)))
	}
	// One entry per connected component not already reachable.
	comp := s.components()
	reach := make(map[int32]bool)
	for _, e := range s.entry {
		reach[comp[e]] = true
	}
	for i := 0; i < n; i++ {
		if !reach[comp[i]] {
			reach[comp[i]] = true
			s.entry = append(s.entry, int32(i))
		}
	}
	if err := s.groupEntries(); err != nil {
		return nil, err
	}
	return s, nil
}

// groupEntries splits the entries into ⌈|E|/entriesPerGroup⌉ balanced groups
// with the 2M tree over their rows, widened so both dtypes group alike. The
// tree runs on one worker: the entry set is small, so more goroutines would
// cost more than they save.
func (s *Searcher) groupEntries() error {
	idx := make([]int, len(s.entry))
	for i, e := range s.entry {
		idx[i] = int(e)
	}
	rows := s.rows.Subset(idx).Widen()
	k := (len(idx) + entriesPerGroup - 1) / entriesPerGroup
	labels, err := twomeans.Cluster(rows, twomeans.Config{K: k, Seed: groupSeed, Workers: 1})
	if err != nil {
		return fmt.Errorf("anns: grouping entry points: %w", err)
	}
	members := make([][]int, k)
	for i, l := range labels {
		members[l] = append(members[l], i)
	}
	s.grouped = make([]int32, 0, len(idx))
	s.groups = make([]entryGroup, k)
	s.cents = vec.NewMatrix(k, s.rows.Dim)
	for g, m := range members {
		c := rows.Mean(m)
		s.cents.SetRow(g, c)
		var r2 float64
		lo := len(s.grouped)
		for _, i := range m {
			r2 += float64(vec.L2Sqr(rows.Row(i), c))
			s.grouped = append(s.grouped, s.entry[i])
		}
		s.groups[g] = entryGroup{lo: checked.Int32(lo), hi: checked.Int32(len(s.grouped)), r2: float32(r2 / float64(len(m)))}
	}
	return nil
}

// buildCSR flattens the symmetrised adjacency into the offsets/neighbors
// pair: node j's row is its own list, then, in ascending order, every node
// that lists j and is missing from j's list. The nodes that list j come from
// in-edge lists built in one counting pass in ascending source order, and a
// stamp of j's own list answers "missing" in O(1), so the build reads each
// edge a constant number of times: O(n·κ), where a scan of the target's list
// per edge would cost O(n·κ²). Built once per Searcher; every query reads it.
func (s *Searcher) buildCSR() error {
	g, n := s.g, s.rows.N
	overflow := fmt.Errorf("anns: symmetrised adjacency has over %d edges; int32 CSR offsets overflow", math.MaxInt32)
	// in[inOff[j]:inOff[j+1]] are the nodes whose lists hold j, ascending.
	inOff := make([]int32, n+1)
	for _, list := range g.Lists {
		for _, nb := range list {
			inOff[nb.ID+1]++
		}
	}
	var total int64
	for j := 0; j < n; j++ {
		total += int64(inOff[j+1])
		if total > math.MaxInt32 {
			return overflow
		}
		inOff[j+1] = int32(total)
	}
	in := make([]int32, total)
	cursor := make([]int32, n)
	copy(cursor, inOff[:n])
	for i, list := range g.Lists {
		for _, nb := range list {
			in[cursor[nb.ID]] = int32(i)
			cursor[nb.ID]++
		}
	}
	// stamp[v] == j+1 says node j's own list holds v. The first pass counts
	// each row, the second fills it; both stamp j's list before reading
	// its in-edges.
	stamp := make([]int32, n)
	s.offsets = make([]int32, n+1)
	total = 0
	for j, list := range g.Lists {
		mark := int32(j + 1)
		for _, nb := range list {
			stamp[nb.ID] = mark
		}
		total += int64(len(list))
		for _, i := range in[inOff[j]:inOff[j+1]] {
			if stamp[i] != mark {
				total++
			}
		}
		if total > math.MaxInt32 {
			return overflow
		}
		s.offsets[j+1] = int32(total)
	}
	s.neighbors = make([]int32, 0, total)
	for j, list := range g.Lists {
		mark := int32(j + 1)
		for _, nb := range list {
			stamp[nb.ID] = mark
			s.neighbors = append(s.neighbors, nb.ID)
		}
		for _, i := range in[inOff[j]:inOff[j+1]] {
			if stamp[i] != mark {
				s.neighbors = append(s.neighbors, i)
			}
		}
	}
	return nil
}

// adjacency returns node id's neighbour ids (a CSR row).
//
//gk:hotpath
func (s *Searcher) adjacency(id int32) []int32 {
	return s.neighbors[s.offsets[id]:s.offsets[id+1]]
}

// Edges returns the number of directed edges in the symmetrised adjacency.
func (s *Searcher) Edges() int { return len(s.neighbors) }

// components labels the connected components of the symmetrised graph with
// an iterative DFS (the CSR holds both edge directions, so directed reach
// equals undirected components).
func (s *Searcher) components() []int32 {
	n := s.rows.N
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	next := int32(0)
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		stack = append(stack[:0], checked.Int32(i))
		comp[i] = next
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range s.adjacency(v) {
				if comp[w] < 0 {
					comp[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return comp
}

// Search returns the approximately closest topK samples to q, sorted by
// ascending squared distance. ef bounds the candidate pool and the
// worst-case expansion count (larger ef = higher recall, more distance
// computations); ef < topK is raised to topK. The search stops early once
// the best unexpanded candidate can no longer improve the current top-topK
// and a further patience window of expansions has not improved them either
// (see the package comment). Safe to call from any goroutine.
//
//gk:hotpath
func (s *Searcher) Search(q []float32, topK, ef int) []knngraph.Neighbor {
	res, _ := s.search(q, topK, ef, false, false)
	return res
}

// Totals returns the cumulative counters across every search answered by
// this Searcher: queries, distance-kernel evaluations and candidate
// expansions.
func (s *Searcher) Totals() (queries, dist, expanded uint64) {
	return s.nQueries.Load(), s.nDist.Load(), s.nExpanded.Load()
}

// search runs one query. exhaust disables early termination (the
// expand-the-whole-pool baseline) and flat scores every entry point
// instead of the nearest groups (the seeding the groups replace) — both
// kept as oracles for the tests that prove the shortcuts cost no recall.
//
//gk:hotpath
func (s *Searcher) search(q []float32, topK, ef int, exhaust, flat bool) ([]knngraph.Neighbor, Stats) {
	var st Stats
	if topK <= 0 {
		return nil, st
	}
	if ef < topK {
		ef = topK
	}
	// patience: how many consecutive non-improving expansions the search
	// tolerates once the best unexpanded candidate is outside the top-topK.
	// Scaling it with ef keeps ef meaningful as the recall knob.
	patience := ef / 4
	if patience < topK {
		patience = topK
	}
	sc := s.scratch.Get().(*searchScratch)
	if sc.stamp == math.MaxInt32 {
		// Stamp wrapped: wash the visited array so stale stamps cannot
		// collide with fresh ones.
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.stamp = 0
	}
	sc.stamp++
	stamp := sc.stamp
	s.rows.Prepare(&sc.q, q)

	// cur is the index of the first unexpanded pool entry: entries before it
	// are all expanded, so each iteration resumes there instead of rescanning
	// the pool from 0 (which made Search O(ef²)).
	cur := 0
	pool := sc.pool[:0]
	// insert places (id, dist) into the sorted bounded pool and reports the
	// insertion position, or -1 when the pool rejected the candidate.
	insert := func(id int32, dist float32) int {
		if len(pool) == ef && dist >= pool[len(pool)-1].dist {
			return -1
		}
		pos := sort.Search(len(pool), func(i int) bool { return pool[i].dist >= dist })
		if len(pool) < ef {
			pool = append(pool, candidate{})
		}
		copy(pool[pos+1:], pool[pos:len(pool)-1])
		pool[pos] = candidate{id: id, dist: dist}
		if pos < cur {
			cur = pos
		}
		return pos
	}

	seed := func(entries []int32) {
		for _, e := range entries {
			if sc.visited[e] == stamp {
				continue
			}
			sc.visited[e] = stamp
			st.Dist++
			insert(e, s.rows.Dist(&sc.q, int(e)))
		}
	}
	if flat || len(s.entry) <= ef {
		seed(s.entry)
	} else {
		// Seed group by group, nearest centroid first, skipping a group once
		// the pool is full and its members' mean squared distance to q —
		// ‖q−c_g‖² + r²_g by the parallel-axis identity — cannot beat the worst.
		rank := sc.rank
		for g := int32(0); int(g) < len(rank); g++ {
			d := vec.L2Sqr(q, s.cents.Row(int(g)))
			i := g
			for ; i > 0 && rank[i-1].dist > d; i-- {
				rank[i] = rank[i-1]
			}
			rank[i] = candidate{id: g, dist: d}
		}
		st.Dist += len(rank)
		for _, r := range rank {
			grp := s.groups[r.id]
			if len(pool) == ef && r.dist+grp.r2 >= pool[len(pool)-1].dist {
				continue
			}
			seed(s.grouped[grp.lo:grp.hi])
		}
	}

	sinceImprove := 0
	for {
		for cur < len(pool) && pool[cur].expanded {
			cur++
		}
		if cur >= len(pool) {
			break
		}
		kTop := topK
		if kTop > len(pool) {
			kTop = len(pool)
		}
		// outside: the best unexpanded candidate sits at or beyond the
		// top-topK boundary, so its own distance cannot improve the current
		// top-topK. Only expansions performed in this state count toward
		// the patience window — the documented rule grants a full window of
		// further expansions after the boundary condition first holds.
		outside := cur >= kTop
		if !exhaust && outside && sinceImprove >= patience {
			// Early termination: the remaining pool tail is very unlikely
			// to help; abandon it.
			break
		}
		pool[cur].expanded = true
		node := pool[cur].id
		st.Expanded++
		improved := false
		for _, id := range s.adjacency(node) {
			if sc.visited[id] == stamp {
				continue
			}
			sc.visited[id] = stamp
			// Candidates that cannot enter the pool are rejected by the
			// early-abandoning kernel partway through the vector.
			bound := float32(math.MaxFloat32)
			if len(pool) == ef {
				bound = pool[len(pool)-1].dist
			}
			st.Dist++
			d := s.rows.DistBound(&sc.q, int(id), bound)
			if d >= bound {
				continue
			}
			if pos := insert(id, d); pos >= 0 && pos < topK {
				improved = true
			}
		}
		switch {
		case improved:
			sinceImprove = 0
		case outside:
			sinceImprove++
		}
	}

	if topK > len(pool) {
		topK = len(pool)
	}
	out := make([]knngraph.Neighbor, topK)
	for i := 0; i < topK; i++ {
		out[i] = knngraph.Neighbor{ID: pool[i].id, Dist: pool[i].dist}
	}
	sc.pool = pool // keep the grown capacity for the next query
	// Drop the query but keep its buffer: a pooled scratch must not pin the
	// caller's slice.
	s.rows.Prepare(&sc.q, nil)
	s.scratch.Put(sc)
	s.nQueries.Add(1)
	s.nDist.Add(uint64(st.Dist))
	s.nExpanded.Add(uint64(st.Expanded))
	return out, st
}

// RecallAt evaluates the searcher on a query set against exact ground truth
// (one exact top-k list per query) and returns the average recall@k at
// pool size ef. See RecallAtFunc for the scoring protocol.
func RecallAt(s *Searcher, queries *vec.Matrix, truth [][]int32, k, ef int) float64 {
	return RecallAtFunc(s.Search, queries, truth, k, ef)
}

// RecallAtFunc is the recall@k scoring protocol over an arbitrary search
// function — the single definition shared by RecallAt and the sharded
// fan-out path, so the two recall numbers can never diverge in protocol.
// It returns the average fraction of each true top-k found among the
// returned top-k, over the queries that have a non-empty ground-truth
// list. Queries with no ground truth are excluded from the average
// entirely (counting them in the denominator would bias recall downward);
// if no query has ground truth the recall is 0.
func RecallAtFunc(search func(q []float32, k, ef int) []knngraph.Neighbor,
	queries *vec.Matrix, truth [][]int32, k, ef int) float64 {

	var sum float64
	evaluated := 0
	for qi := 0; qi < queries.N; qi++ {
		t := truth[qi]
		if len(t) > k {
			t = t[:k]
		}
		if len(t) == 0 {
			continue
		}
		res := search(queries.Row(qi), k, ef)
		got := make(map[int32]bool, len(res))
		for _, nb := range res {
			got[nb.ID] = true
		}
		hit := 0
		for _, id := range t {
			if got[id] {
				hit++
			}
		}
		evaluated++
		sum += float64(hit) / float64(len(t))
	}
	if evaluated == 0 {
		return 0
	}
	return sum / float64(evaluated)
}

// ExactTruth computes exact top-k ids for each query by brute force —
// ground truth for recall evaluation. Queries are independent, so the scan
// fans out across up to workers goroutines (<=0 selects GOMAXPROCS); the
// result is identical for every worker count.
func ExactTruth(data, queries *vec.Matrix, k, workers int) [][]int32 {
	truth := make([][]int32, queries.N)
	parallel.For(queries.N, workers, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			q := queries.Row(qi)
			type pair struct {
				id int32
				d  float32
			}
			best := make([]pair, 0, k+1)
			for i := 0; i < data.N; i++ {
				d := vec.L2Sqr(q, data.Row(i))
				if len(best) == k && d >= best[len(best)-1].d {
					continue
				}
				pos := sort.Search(len(best), func(j int) bool { return best[j].d >= d })
				if len(best) < k {
					best = append(best, pair{})
				}
				copy(best[pos+1:], best[pos:len(best)-1])
				best[pos] = pair{checked.Int32(i), d}
			}
			ids := make([]int32, len(best))
			for i, p := range best {
				ids[i] = p.id
			}
			truth[qi] = ids
		}
	})
	return truth
}
