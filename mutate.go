package gkmeans

import (
	"context"
	"fmt"
	"math"
	"time"

	"gkmeans/internal/checked"
	"gkmeans/internal/router"
	"gkmeans/internal/store"
	"gkmeans/internal/vec"
)

// Mutation: Append, Delete and Compact grow, shrink and consolidate an
// index without ever touching a published value. Every mutation is
// copy-on-write — it returns a new *Index sharing every unchanged segment
// core (rows, graph, searcher) with the receiver — so concurrent readers
// of the old value keep answering queries from a consistent snapshot and
// a serving layer promotes the new value with one atomic swap.
//
// The unit of mutation is the segment, which the public API calls a shard
// (search already merges per-segment results): Append builds one new shard
// over the fresh vectors,
// Delete marks rows in per-shard tombstone bitmaps that every search
// skips, and Compact rebuilds tombstone-heavy or fragmented shards from
// their live rows only. External ids are stable for the life of a vector:
// Append assigns them from a monotone counter and a compacted shard keeps
// an explicit id map for its surviving rows, so compaction changes which
// shard answers for a vector but never its id. A compaction whose
// survivors are ids 0..N-1 in one segment leaves a monolithic index: what
// an index can do follows from the segments it holds, not from how it got
// them.

// ShardInfo describes one shard of an index for operational decisions
// (compaction policy, stats endpoints). A monolithic index reports a
// single entry.
type ShardInfo struct {
	Rows    int    // physical rows, live and tombstoned
	Deleted int    // tombstoned rows
	Live    int    // Rows - Deleted
	Gen     uint64 // build generation: 0 at Build, counting up per mutation
}

// IDBound returns the exclusive upper bound of the external ids in use:
// Append assigns ids starting here. Serving layers use it to pre-assign
// ids to vectors buffered ahead of a shard build.
func (x *Index) IDBound() int32 { return x.nextID }

// maxGen returns the highest segment generation.
func (x *Index) maxGen() uint64 {
	var g uint64
	for i := range x.segs {
		g = max(g, x.segs[i].gen)
	}
	return g
}

// ShardInfos returns one ShardInfo per segment (a single entry for a
// monolithic index), the input of the compaction policy.
func (x *Index) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(x.segs))
	for i := range x.segs {
		s := &x.segs[i]
		out[i] = ShardInfo{Rows: s.rows.N, Deleted: s.dead(), Live: s.rows.N - s.dead(), Gen: s.gen}
	}
	return out
}

// Deleted returns the number of tombstoned rows across all segments.
func (x *Index) Deleted() int {
	del := 0
	for i := range x.segs {
		del += x.segs[i].dead()
	}
	return del
}

// Live returns the number of searchable rows: N() minus Deleted().
func (x *Index) Live() int { return x.N() - x.Deleted() }

// locate maps an external id to its (segment, local row), scanning id maps
// where present. ok is false for an id the index never assigned or that
// compaction has already reclaimed.
func (x *Index) locate(id int32) (at, local int, ok bool) {
	if id < 0 {
		return 0, 0, false
	}
	for at := range x.segs {
		s := &x.segs[at]
		if s.ids != nil {
			// Routed and compacted segments carry explicit ids; a linear
			// scan keeps the id map free of auxiliary structures. Deletes
			// are rare next to searches, so the O(rows) cost sits off the
			// hot path.
			for l, v := range s.ids {
				if v == id {
					return at, l, true
				}
			}
			continue
		}
		if id >= s.base && int(id-s.base) < s.rows.N {
			return at, int(id - s.base), true
		}
	}
	return 0, 0, false
}

// Append builds one new shard over vectors and returns a new *Index
// serving both the old rows and the new ones. The receiver is not
// modified: every existing shard — graph, searcher, tombstones — is
// shared with the result, so readers of the old value stay valid while
// the caller swaps the new one in. The appended vectors are assigned the
// external ids IDBound()..IDBound()+vectors.N-1, in order.
//
// The new shard is built with the receiver's Build-time options (seed,
// workers, builder, κ/ξ/τ) through the same pipeline as WithShards
// shards. An index from LoadIndex or ReadIndexFrom has them from its file
// — all but workers, which default to GOMAXPROCS and never change a
// graph — so a loaded index grows exactly as the saved one would have.
// vectors needs at least two rows (a k-NN graph needs a neighbour);
// serving layers buffer single inserts until a build is due. An index
// carrying a Build-time clustering refuses Append — the labels cannot
// cover rows that did not exist — as does one whose id space would
// overflow int32.
//
// Every Append adds a shard, and every shard adds per-query fan-out
// work; pair Append with Compact (or the serving compactor) to fold
// accumulated small shards back into large ones.
func (x *Index) Append(ctx context.Context, vectors *Matrix) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	own, err := x.appendRows(vectors)
	if err != nil {
		return nil, err
	}
	cfg := x.cfg
	cfg.progress = nil
	built, graphTime, err := buildSegs(ctx, []vec.Rows{own}, cfg)
	if err != nil {
		return nil, err
	}
	// A routed receiver extends its router: the new segment gets its own
	// centroids (unchanged segments share theirs), so appended vectors are
	// routable the moment the new index is swapped in.
	var cents *Matrix
	if x.route != nil {
		if cents, err = routingCentroids(own, x.cfg, x.maxGen()+1, len(x.segs)); err != nil {
			return nil, err
		}
	}
	return x.withSegment(built[0].segCore, cents, graphTime)
}

// appendRows checks vectors as Append's input and returns the new segment's
// own copy of them — narrowed up front on a uint8 index, where every value
// must be an exact byte like a query's. It is the only copy an append
// makes: the receiver's rows stay in its segments.
func (x *Index) appendRows(vectors *Matrix) (vec.Rows, error) {
	switch {
	case vectors == nil || vectors.N == 0:
		return vec.Rows{}, fmt.Errorf("gkmeans: Append needs a non-empty vector set")
	case vectors.Dim != x.Dim():
		return vec.Rows{}, fmt.Errorf("gkmeans: appending %d-dimensional vectors to a %d-dimensional index", vectors.Dim, x.Dim())
	case vectors.N < minShardRows:
		return vec.Rows{}, fmt.Errorf("gkmeans: Append needs at least %d vectors to build a shard graph, got %d", minShardRows, vectors.N)
	case x.clusters != nil:
		return vec.Rows{}, fmt.Errorf("gkmeans: Append on an index with a Build-time clustering; rebuild without WithClusters")
	case int64(x.nextID)+int64(vectors.N) > math.MaxInt32:
		return vec.Rows{}, fmt.Errorf("gkmeans: appending %d vectors would overflow the int32 id space at %d", vectors.N, x.nextID)
	}
	own, err := vec.NewRows(vectors.Clone(), x.DType() == DTypeUint8)
	if err != nil {
		return vec.Rows{}, fmt.Errorf("gkmeans: Append on a %s index: %w", x.DType(), err)
	}
	return own, nil
}

// withSegment returns a copy of x with sc as one more segment: ids from the
// id bound on, the next generation, and on a routed index cents as its
// routing centroids. Append and AppendEncoded end here.
func (x *Index) withSegment(sc *segCore, cents *Matrix, graphTime time.Duration) (*Index, error) {
	n := len(x.segs)
	y := *x
	y.segs = append(x.segs[:n:n], seg{segCore: sc, base: x.nextID, gen: x.maxGen() + 1}) // full slice expression: always copies
	y.graphTime += graphTime
	y.nextID = checked.Int32(int(x.nextID) + sc.rows.N)
	if x.route != nil {
		all := make([]*Matrix, n, n+1)
		for s := range all {
			all[s] = x.route.Centroids(s)
		}
		var err error
		if y.route, err = router.New(x.route.K(), x.Dim(), append(all, cents)); err != nil {
			return nil, fmt.Errorf("gkmeans: extending shard router: %w", err)
		}
	}
	return &y, nil
}

// Delete tombstones the vectors with the given external ids and returns a
// new *Index that skips them in every search. The receiver is not
// modified (copy-on-write: only the affected shards' bitmaps are copied),
// so readers of the old value still see the rows. Deleting an
// already-deleted id is a no-op; an id the index never assigned — or one
// compaction has reclaimed — is an error and no new index is produced.
// The rows' storage is reclaimed by Compact, not here. A Build-time
// clustering does not carry over: its labels would keep covering deleted
// rows. Routing centroids (WithRouting) do carry over unchanged — after
// deletions they are approximate by design, since recomputing them per
// delete would put a k-means run on the write path for marginal routing
// benefit; Compact recomputes the rebuilt shard's centroids exactly.
func (x *Index) Delete(ids ...int32) (*Index, error) {
	if len(ids) == 0 {
		return x, nil
	}
	y := *x
	y.segs = append([]seg(nil), x.segs...)
	y.clusters = nil
	owned := make([]bool, len(y.segs))
	for _, id := range ids {
		at, local, ok := x.locate(id)
		if !ok {
			return nil, fmt.Errorf("gkmeans: Delete of unknown id %d", id)
		}
		s := &y.segs[at]
		if !owned[at] {
			if s.tomb == nil {
				s.tomb = store.NewBits(s.rows.N)
			} else {
				s.tomb = s.tomb.Clone()
			}
			owned[at] = true
		}
		s.tomb.Set(local)
	}
	return &y, nil
}

// Compact rebuilds the given shards (all of them when none are named)
// from their live rows only, merged into one fresh shard, and returns a
// new *Index: tombstoned rows are physically dropped, their tombstones
// disappear, and the shard count shrinks by len(targets)-1. Unnamed
// shards are shared with the receiver untouched, and surviving rows keep
// their external ids (the merged shard carries an explicit id map when
// the ids are no longer contiguous), so the only observable change is
// that searches stop paying for dead rows and extra fan-out.
//
// The merged shard is built with the receiver's Build-time options (a
// loaded index's included, see Append); on a serving path, run Compact off
// the request path and swap the result in (the background compactor in
// gkmeans/internal/server does exactly that). Compacting away every row of
// the index is refused, as is a selection whose live remainder is too
// small to carry a graph.
func (x *Index) Compact(ctx context.Context, targets ...int) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(x.segs)
	if len(targets) == 0 {
		targets = make([]int, n)
		for i := range targets {
			targets[i] = i
		}
	}
	inTarget := make([]bool, n)
	for _, s := range targets {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("gkmeans: Compact of shard %d, index has %d", s, n)
		}
		if inTarget[s] {
			return nil, fmt.Errorf("gkmeans: Compact names shard %d twice", s)
		}
		inTarget[s] = true
	}
	if x.clusters != nil {
		return nil, fmt.Errorf("gkmeans: Compact on an index with a Build-time clustering; rebuild without WithClusters")
	}

	live := func(s int) int { return x.segs[s].rows.N - x.segs[s].dead() }
	mergedLive := 0
	for s := 0; s < n; s++ {
		if inTarget[s] {
			mergedLive += live(s)
		}
	}
	// A merged segment below the graph minimum cannot be built on its own:
	// widen the selection with the smallest untargeted segments until it
	// carries enough live rows (or nothing is left to widen with).
	for mergedLive > 0 && mergedLive < minShardRows {
		best := -1
		for s := 0; s < n; s++ {
			if !inTarget[s] && (best < 0 || x.segs[s].rows.N < x.segs[best].rows.N) {
				best = s
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("gkmeans: compaction would leave %d live rows, fewer than a graph needs (%d)", mergedLive, minShardRows)
		}
		inTarget[best] = true
		mergedLive += live(best)
	}
	keptRows := 0
	for s := 0; s < n; s++ {
		if !inTarget[s] {
			keptRows += x.segs[s].rows.N
		}
	}
	if keptRows+mergedLive == 0 {
		return nil, fmt.Errorf("gkmeans: compaction would empty the index (every row is deleted)")
	}

	// Gather the targets' live rows in segment order — the only rows
	// Compact lays out anew — and their external ids.
	merged := x.segs[0].rows.Alloc(mergedLive)
	mergedIDs := make([]int32, 0, mergedLive)
	for s := 0; s < n; s++ {
		sg := &x.segs[s]
		for l := 0; inTarget[s] && l < sg.rows.N; l++ {
			if sg.tomb == nil || !sg.tomb.Get(l) {
				merged.Copy(len(mergedIDs), sg.rows, l, l+1)
				mergedIDs = append(mergedIDs, sg.id(l))
			}
		}
	}

	y := *x
	y.segs = make([]seg, 0, n)
	var cents []*Matrix
	placed := false
	for s := 0; s < n; s++ {
		switch {
		case !inTarget[s]:
			y.segs = append(y.segs, x.segs[s])
			if x.route != nil {
				cents = append(cents, x.route.Centroids(s))
			}
		case !placed && mergedLive > 0:
			cfg := x.cfg
			cfg.progress = nil
			built, graphTime, err := buildSegs(ctx, []vec.Rows{merged}, cfg)
			if err != nil {
				return nil, err
			}
			y.graphTime += graphTime
			merged := built[0]
			merged.base, merged.gen = mergedIDs[0], x.maxGen()+1
			// If the surviving ids are still base+local, there is no id map:
			// the segment persists and serves exactly like a freshly built one.
			for l, id := range mergedIDs {
				if id != merged.base+checked.Int32(l) {
					merged.ids = mergedIDs
					break
				}
			}
			if x.route != nil {
				// The merged segment's rows changed, so its routing centroids
				// are recomputed from scratch; untargeted segments keep theirs.
				m, err := routingCentroids(merged.rows, x.cfg, merged.gen, len(y.segs))
				if err != nil {
					return nil, err
				}
				cents = append(cents, m)
			}
			y.segs = append(y.segs, merged)
		}
		placed = placed || inTarget[s]
	}
	if x.route != nil {
		var err error
		if y.route, err = router.New(x.route.K(), x.Dim(), cents); err != nil {
			return nil, fmt.Errorf("gkmeans: reassembling shard router: %w", err)
		}
	}
	// The targets leave the lineage here; their search work stays counted.
	for s := 0; s < n; s++ {
		if inTarget[s] {
			x.probes.retire(&x.segs[s])
		}
	}
	return &y, nil
}
