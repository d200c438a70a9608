package gkmeans

import (
	"fmt"
	"sort"
	"sync"

	"gkmeans/internal/anns"
	"gkmeans/internal/checked"
	"gkmeans/internal/parallel"
)

// ensureSearcher returns the segment's search structures (flat CSR adjacency,
// entry points), building them on first use. It cannot fail: newSegCore or
// the build already established the only invariants anns checks.
func (c *segCore) ensureSearcher() *anns.Searcher {
	c.once.Do(func() {
		s, err := anns.New(c.rows, c.graph, c.entries)
		if err != nil {
			// Unreachable by construction; keep the invariant loud.
			panic("gkmeans: index searcher: " + err.Error())
		}
		c.searcher.Store(s)
	})
	return c.searcher.Load()
}

// defaultEf resolves the candidate pool size: a non-positive ef selects
// max(4·topK, 32), a reasonable recall/latency default, and ef < topK is
// raised to topK so the pool can always hold the requested results.
func defaultEf(topK, ef int) int {
	if ef <= 0 {
		if ef = 4 * topK; ef < 32 {
			ef = 32
		}
	}
	if ef < topK {
		ef = topK
	}
	return ef
}

// checkQuery rejects a query of the wrong dimensionality, one holding a
// NaN, or one holding a value CheckByteValues refuses. A NaN distance has no
// place in the sorted candidate pool, which assumes every distance compares.
// ±Inf does compare (every distance from it is +Inf, so the answer is the
// first topK rows reached) and stays a valid float32 query. Search has no
// error return (each is a programming error, like an out-of-range slice
// index), so it panics — here, on the caller's goroutine, and never in a
// fan-out or batch worker, where a panic would end the process.
func (x *Index) checkQuery(q []float32) {
	if len(q) != x.Dim() {
		panic(fmt.Sprintf("gkmeans: query dimensionality %d, index dimensionality %d", len(q), x.Dim()))
	}
	for i, v := range q {
		if v != v {
			panic(fmt.Sprintf("gkmeans: query value NaN at dim %d", i))
		}
	}
	if err := x.CheckByteValues(q); err != nil {
		panic(err.Error())
	}
}

// Search returns the approximately closest topK samples to q, sorted by
// ascending squared distance, equal distances by ascending id; topK <= 0
// returns none. ef bounds the
// candidate pool and the worst-case work per query (larger ef = higher
// recall, more distance computations); ef <= 0 selects max(4·topK, 32),
// and ef < topK is raised to topK. The search terminates early: expansion
// stops once the best unexpanded candidate can no longer improve the
// current top-topK results and a further patience window of expansions has
// not improved them either, so easy queries finish well below the ef
// budget while hard ones use all of it. topK larger than the index returns
// all indexed samples. q must have the index's dimensionality, no NaN
// (±Inf is allowed), and on a uint8 index exact byte values; anything else
// panics. Safe to call from any goroutine.
//
// The query probes every segment (each bounded by the same topK and ef)
// and the per-segment results merge into one global top-topK; SearchNProbe
// searches only the nprobe nearest segments of a routed index. Several
// probed segments are searched concurrently, one goroutine each; a single
// one — every query of a one-segment index — is searched on the calling
// goroutine and needs no merge.
func (x *Index) Search(q []float32, topK, ef int) []Neighbor {
	return x.SearchNProbe(q, topK, ef, 0)
}

// SearchNProbe is Search with an explicit per-query probe count for routed
// indexes (WithRouting): the query is compared against every segment's
// routing centroids and only the nprobe segments with the closest
// centroids are searched before the usual deterministic merge. Smaller
// nprobe means proportionally fewer distance computations at some recall
// cost — the work/recall knob of a routed index, next to ef.
//
// nprobe <= 0, an nprobe at or past the segment count, and any value on an
// unrouted index probe everything, bit-identical to Search on an unrouted
// index.
func (x *Index) SearchNProbe(q []float32, topK, ef, nprobe int) []Neighbor {
	x.checkQuery(q)
	if topK <= 0 {
		return nil
	}
	return x.search(q, topK, defaultEf(topK, ef), x.resolveNProbe(nprobe), true)
}

// search is the one search path: rank the segments when np of them are to
// be probed and np is fewer than all, search each probed segment, merge.
// The probe count it was handed decides how: one segment is searched right
// here — no goroutine, no scratch for its result, no merge (the merge of
// one list is that list with its ties ordered) — which is all a
// one-segment index ever does; several run one goroutine each when
// concurrent is set (a lone query, whose latency is exactly what the
// fan-out buys) and in probe order on this goroutine otherwise (a batch,
// which already saturates the cores across queries). Either way the merge
// input, and so the answer, does not depend on scheduling.
func (x *Index) search(q []float32, topK, ef, np int, concurrent bool) []Neighbor {
	n := len(x.segs)
	if n == 1 {
		x.probes.note(1, 1, 0)
		return orderTies(x.segs[0].search(q, topK, ef))
	}
	sc := fanScratchPool.Get().(*fanScratch)
	sc.grow(n)
	if np < n {
		x.route.Rank(q, sc.order, sc.dists)
		x.probes.note(np, n, x.route.TotalCentroids())
	} else {
		// The full fan-out does not consult the router at all.
		for s := range sc.order {
			sc.order[s] = checked.Int32(s)
		}
		x.probes.note(n, n, 0)
	}
	var out []Neighbor
	switch {
	case np == 1:
		out = orderTies(x.segs[sc.order[0]].search(q, topK, ef))
	case concurrent:
		var wg sync.WaitGroup
		for i := 0; i < np; i++ {
			wg.Add(1)
			go func(slot int, s *seg) {
				defer wg.Done()
				sc.parts[slot] = s.search(q, topK, ef)
			}(i, &x.segs[sc.order[i]])
		}
		wg.Wait()
		out = mergeShardResults(sc.parts[:np], topK)
	default:
		for i := 0; i < np; i++ {
			sc.parts[i] = x.segs[sc.order[i]].search(q, topK, ef)
		}
		out = mergeShardResults(sc.parts[:np], topK)
	}
	sc.release()
	fanScratchPool.Put(sc)
	return out
}

// search answers a query against one segment: the closest topK live rows,
// by external id. This is the one place tombstones and id maps are
// applied. To keep topK live results available after filtering, the search
// overfetches by the segment's tombstone count (capped at its size) — the
// closest topK+dead rows contain at least the closest topK live ones.
func (s *seg) search(q []float32, topK, ef int) []Neighbor {
	var res []Neighbor
	if dead := s.dead(); dead == 0 {
		res = s.ensureSearcher().Search(q, topK, ef)
	} else {
		k2 := min(topK+dead, s.rows.N)
		all := s.ensureSearcher().Search(q, k2, max(ef, k2))
		res = all[:0]
		for _, nb := range all {
			if s.tomb.Get(int(nb.ID)) {
				continue
			}
			res = append(res, nb)
			if len(res) == topK {
				break
			}
		}
	}
	switch {
	case s.ids != nil:
		for i := range res {
			res[i].ID = s.ids[res[i].ID]
		}
	case s.base != 0:
		for i := range res {
			res[i].ID += s.base
		}
	}
	return res
}

// fanScratch is the per-query scratch of a many-segment search: the
// per-segment result slots plus the probe order and the router's distance
// array. Pooled so the fan-out allocates nothing per query beyond the
// results themselves.
type fanScratch struct {
	parts [][]Neighbor
	order []int32
	dists []float32
}

// grow resizes the scratch for n segments, reusing capacity when it can.
func (sc *fanScratch) grow(n int) {
	if cap(sc.parts) < n {
		sc.parts = make([][]Neighbor, n)
		sc.order = make([]int32, n)
		sc.dists = make([]float32, n)
	}
	sc.parts = sc.parts[:n]
	sc.order = sc.order[:n]
	sc.dists = sc.dists[:n]
}

// release drops the result references (they belong to the caller now) so a
// pooled scratch never pins result slices across queries.
func (sc *fanScratch) release() {
	for i := range sc.parts {
		sc.parts[i] = nil
	}
}

var fanScratchPool = sync.Pool{New: func() any { return new(fanScratch) }}

// orderTies puts runs of equal distance in a distance-sorted list into
// ascending id order, in place — what mergeShardResults would make of the
// one list, without the copy and the sort. Lists rarely hold a tie, so
// this is one comparison per result.
func orderTies(res []Neighbor) []Neighbor {
	for i := 1; i < len(res); i++ {
		for j := i; j > 0 && res[j].Dist == res[j-1].Dist && res[j].ID < res[j-1].ID; j-- {
			res[j], res[j-1] = res[j-1], res[j]
		}
	}
	return res
}

// mergeShardResults merges per-segment result lists — already filtered and
// remapped to external ids by seg.search — and keeps the topK closest
// overall. Ties on distance are broken by ascending id so the merged
// ranking is deterministic regardless of which segment finished first.
func mergeShardResults(parts [][]Neighbor, topK int) []Neighbor {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	merged := make([]Neighbor, 0, total)
	for _, p := range parts {
		merged = append(merged, p...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Dist != merged[j].Dist {
			return merged[i].Dist < merged[j].Dist
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > topK {
		merged = merged[:topK]
	}
	return merged
}

// SearchStats are the cumulative search counters of an index, accumulated
// across every Search, SearchBatch and Recall call. Queries counts the
// queries answered and ShardsProbed the segment searches they cost (equal
// on a one-segment index; segment count × queries on a full fan-out, less
// when routing skips segments); RoutedQueries counts the queries for which
// the router skipped at least one segment. DistanceComps counts
// distance-kernel evaluations (the dominant cost of a query, the router's
// and the entry groups' centroid comparisons included) and ExpandedCandidates counts pool
// entries expanded through their graph neighbours — the quantity the
// early-termination rule bounds. Serving layers export them to make the
// per-query work visible in production.
type SearchStats struct {
	Queries            uint64
	DistanceComps      uint64
	ExpandedCandidates uint64
	ShardsProbed       uint64
	RoutedQueries      uint64
}

// SearchStats returns the index's cumulative search counters. The query
// and probe counters are shared with every copy-on-write successor and
// predecessor of the index, so they stay monotone across swaps; the work
// counters are summed over the segments the index holds now (a searcher is
// built lazily and the accessor does not force it) plus the totals of the
// segments Compact retired along the way, so they never fall when a
// successor replaces its predecessor. Safe to call from any goroutine.
func (x *Index) SearchStats() SearchStats {
	p := x.probes
	out := SearchStats{
		Queries:            p.queries.Load(),
		DistanceComps:      p.routeComps.Load() + p.retiredComps.Load(),
		ExpandedCandidates: p.retiredExpanded.Load(),
		ShardsProbed:       p.probed.Load(),
		RoutedQueries:      p.routed.Load(),
	}
	for i := range x.segs {
		if s := x.segs[i].searcher.Load(); s != nil {
			_, d, e := s.Totals()
			out.DistanceComps += d
			out.ExpandedCandidates += e
		}
	}
	return out
}

// SearchBatch answers every query concurrently and returns one sorted
// result list per query (an empty one each when topK <= 0). ef follows the
// same defaulting as Search; the worker count comes from WithWorkers (<=0
// selects GOMAXPROCS). Queries follow Search's contract, checked for every
// query before any is searched. Safe to call from any goroutine, including
// concurrently with Search.
//
// The workers parallelise across queries and each query scans its probed
// segments in a query-determined order, so the merged results are
// identical for every worker count.
func (x *Index) SearchBatch(queries *Matrix, topK, ef int) [][]Neighbor {
	return x.SearchBatchNProbe(queries, topK, ef, 0)
}

// SearchBatchNProbe is SearchBatch with an explicit per-call probe count
// for routed indexes; nprobe follows the same resolution as SearchNProbe.
func (x *Index) SearchBatchNProbe(queries *Matrix, topK, ef, nprobe int) [][]Neighbor {
	for qi := 0; qi < queries.N; qi++ {
		x.checkQuery(queries.Row(qi))
	}
	out := make([][]Neighbor, queries.N)
	if topK <= 0 {
		return out
	}
	ef = defaultEf(topK, ef)
	np := x.resolveNProbe(nprobe)
	parallel.For(queries.N, x.cfg.workers, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			out[qi] = x.search(queries.Row(qi), topK, ef, np, false)
		}
	})
	return out
}

// Recall evaluates the index on a query set against exact ground truth (one
// exact top-k id list per query, e.g. from ExactNeighbors) and returns the
// average recall@k at the given pool size ef.
func (x *Index) Recall(queries *Matrix, truth [][]int32, k, ef int) float64 {
	return anns.RecallAtFunc(x.Search, queries, truth, k, defaultEf(k, ef))
}
