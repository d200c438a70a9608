package gkmeans

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gkmeans/internal/anns"
	"gkmeans/internal/checked"
	"gkmeans/internal/core"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/router"
	"gkmeans/internal/store"
	"gkmeans/internal/vec"
)

// Index is an immutable bundle of a dataset, its approximate k-NN graph and
// an optional clustering — the one artefact the paper builds (Alg. 3) and
// then reuses for both graph-supported clustering (Alg. 2) and ANN search
// (§4.3). After Build returns, an Index is safe for concurrent use: Search,
// SearchBatch and Cluster may all be called from any number of goroutines.
//
// The dataset and graph are shared, not copied; callers must not mutate
// them after handing them to Build or NewIndex.
//
// Every Index has the same shape: a header — the optional router, the id
// bound, the optional clustering, the build options and the probe counters
// — over a list of one or more segments, each a run of rows and the k-NN
// graph over them. The rows live only in the segments; the dataset is
// their concatenation in segment order. Search probes segments and merges
// what they return. Build makes one segment,
// WithShards(n) makes n, Append adds one, Compact folds several into one.
// A monolithic index is simply the one-segment case in which row i is
// external id i; its graph is then a graph over the whole dataset, so that
// is when Graph, Cluster and WithClusters are available.
type Index struct {
	segs []seg // never empty

	// route holds the per-segment routing centroids of a WithRouting build
	// (nil for unrouted indexes); probes counts the queries answered and
	// the segment searches they cost. The probes pointer is shared across
	// copy-on-write successors so serving counters stay monotone across
	// index swaps.
	route  *router.Table
	probes *probeStats

	// nextID is the lowest never-assigned external id: Append hands out ids
	// from here, and compaction never reuses them.
	nextID int32

	// clusters is the Build-time clustering (WithClusters), if any.
	clusters *Result

	// graphTime is the wall clock spent constructing the graphs; zero when
	// they were supplied (NewIndex) or loaded (ReadIndexFrom).
	graphTime time.Duration

	// cfg keeps the build-time options as defaults for Cluster and
	// SearchBatch calls, and for the graphs Append and Compact build.
	cfg config
}

// segCore is the immutable part of a segment — its rows, their graph and
// the search structures derived from the two. Copy-on-write successors
// share it by pointer, so a searcher is built at most once however many
// index values a segment lives through.
type segCore struct {
	rows    vec.Rows
	graph   *Graph
	entries int // requested entry points, see WithEntryPoints

	// searcher is built lazily on first search: pure clustering workloads
	// never pay for the CSR adjacency. The atomic pointer lets SearchStats
	// peek without forcing the build.
	once     sync.Once
	searcher atomic.Pointer[anns.Searcher]
}

// seg is one segment of an index: the shared immutable core plus the
// state mutations replace — where its rows sit in the external id space
// and which of them are deleted. A seg is a small value; a successor index
// copies the list and changes the entries it needs to.
type seg struct {
	*segCore
	base int32       // external id of row 0; row l is base+l unless ids is set
	ids  []int32     // explicit external ids of a routed or compacted segment
	gen  uint64      // build generation: 0 at Build, counting up per mutation
	tomb *store.Bits // deleted rows, skipped by every search; nil = none
}

// newSegCore validates rows and g as one segment. The graph may come from
// anywhere (a file, NN-Descent, …); a structurally broken one is rejected
// here rather than panicking inside the first search or clustering call,
// and with that every invariant anns.New checks holds.
func newSegCore(rows vec.Rows, g *Graph, entries int) (*segCore, error) {
	if rows.N == 0 {
		return nil, fmt.Errorf("gkmeans: an index needs a non-empty dataset")
	}
	if int64(rows.N) > math.MaxInt32 {
		return nil, fmt.Errorf("gkmeans: dataset has %d rows; sample ids are int32", rows.N)
	}
	if g == nil {
		return nil, fmt.Errorf("gkmeans: an index needs a graph")
	}
	if g.N() != rows.N {
		return nil, fmt.Errorf("gkmeans: graph has %d nodes for %d samples", g.N(), rows.N)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gkmeans: invalid graph: %w", err)
	}
	return &segCore{rows: rows, graph: g, entries: entries}, nil
}

// dead returns the number of tombstoned rows.
func (s *seg) dead() int {
	if s.tomb == nil {
		return 0
	}
	return s.tomb.Count()
}

// id returns the external id of local row l.
func (s *seg) id(l int) int32 {
	if s.ids != nil {
		return s.ids[l]
	}
	return s.base + checked.Int32(l)
}

// Build constructs an Index over data: it runs the paper's intertwined
// graph construction (Alg. 3) and, with WithClusters, a graph-supported
// clustering (Alg. 2). ctx cancellation is honoured between graph rounds
// and clustering epochs; on cancellation Build returns ctx.Err().
//
// WithDType(DTypeUint8) narrows the (exactly byte-valued) input and keeps
// it as bytes — same graphs and results, 4x less dataset memory.
func Build(ctx context.Context, data *Matrix, opts ...Option) (*Index, error) {
	cfg := applyOptions(config{}, opts)
	if cfg.dtype > DTypeUint8 {
		return nil, fmt.Errorf("gkmeans: WithDType(%s): unsupported dtype", cfg.dtype)
	}
	rows, err := vec.NewRows(data, cfg.dtype == DTypeUint8)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: WithDType(%s): %w", cfg.dtype, err)
	}
	return build(ctx, rows, cfg)
}

// build is Build and BuildU8 behind the element type: lay the rows out in
// segments (one; WithShards' even contiguous split; or WithRouting's
// spatial partition, see route.go), build one graph per segment, then the
// optional router and clustering.
func build(ctx context.Context, data vec.Rows, cfg config) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if data.N == 0 {
		return nil, fmt.Errorf("gkmeans: Build needs a non-empty dataset")
	}
	// Sample ids are int32 throughout (neighbour lists, CSR adjacency, the
	// .gkx format). Refusing oversized datasets here makes every downstream
	// narrowing a checked invariant rather than a potential truncation.
	if int64(data.N) > math.MaxInt32 {
		return nil, fmt.Errorf("gkmeans: dataset has %d rows; sample ids are int32", data.N)
	}
	// Checked before the segment-count clamp: an option conflict must error
	// even when a tiny dataset would clamp the request down to one segment.
	switch {
	case cfg.clusterK > 0 && cfg.dtype == DTypeUint8:
		return nil, fmt.Errorf("gkmeans: WithClusters needs float32 centroids over the full dataset; a uint8 index cannot cluster")
	case cfg.clusterK > 0 && cfg.shards > 1:
		return nil, fmt.Errorf("gkmeans: WithClusters needs a global k-NN graph; it cannot be combined with WithShards")
	case cfg.routing > 0 && cfg.shards <= 1:
		return nil, fmt.Errorf("gkmeans: WithRouting routes across shards; combine it with WithShards(n), n > 1")
	}
	n := clampShards(cfg.shards, data.N)
	if n == 1 {
		// A dataset too small to split has nothing to route, so the router
		// request is dropped with the shards.
		cfg.routing = 0
	}
	x := &Index{probes: &probeStats{}, cfg: cfg}
	parts := make([]vec.Rows, n)
	var idmaps [][]int32
	var err error
	if cfg.routing > 0 {
		if parts, idmaps, err = routedLayout(data, cfg, n); err != nil {
			return nil, err
		}
	} else {
		for s := range parts {
			parts[s] = data.View(shardBounds(s, n, data.N))
		}
	}
	if x.segs, x.graphTime, err = buildSegs(ctx, parts, cfg); err != nil {
		return nil, err
	}
	row := 0
	for s := range x.segs {
		x.segs[s].base = checked.Int32(row)
		if idmaps != nil {
			x.segs[s].ids, x.segs[s].base = idmaps[s], idmaps[s][0]
		}
		row += parts[s].N
	}
	x.nextID = checked.Int32(row)
	if cfg.routing > 0 {
		cents := make([]*Matrix, n)
		for s := range cents {
			if cents[s], err = routingCentroids(x.segs[s].rows, cfg, 0, s); err != nil {
				return nil, err
			}
		}
		if x.route, err = router.New(cfg.routing, data.Dim, cents); err != nil {
			return nil, fmt.Errorf("gkmeans: assembling shard router: %w", err)
		}
	}
	if cfg.clusterK > 0 {
		if x.clusters, err = x.Cluster(ctx, cfg.clusterK); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// buildSegs builds one segment over each of parts — sequentially, so at
// most one build pipeline (and its scratch memory) is in flight, each
// using the full WithWorkers parallelism. A uint8 segment widens its rows
// transiently for graph construction and keeps only the bytes resident.
// cfg.progress, when set, sees one "graph" stream across all segments:
// segment s's rounds land at s·τ + done out of len(parts)·τ. Callers:
// build, and the single-segment builds of Append and Compact.
func buildSegs(ctx context.Context, parts []vec.Rows, cfg config) ([]seg, time.Duration, error) {
	segs := make([]seg, len(parts))
	var graphTime time.Duration
	tau := cfg.resolvedTau()
	lo := 0
	for s, rows := range parts {
		hi := lo + rows.N
		gc := core.GraphConfig{
			Kappa:     cfg.kappa,
			Xi:        cfg.xi,
			Tau:       cfg.tau,
			Seed:      cfg.seed,
			Workers:   cfg.workers,
			Builder:   cfg.builder,
			Interrupt: ctx.Err,
		}
		if cfg.progress != nil {
			progress, first := cfg.progress, s*tau
			gc.OnRound = func(t int, _ *knngraph.Graph, _ []int) { progress("graph", first+t, len(parts)*tau) }
		}
		start := time.Now()
		g, err := core.BuildGraph(rows.Widen(), gc)
		if err != nil {
			if len(parts) > 1 {
				err = fmt.Errorf("gkmeans: building shard %d/%d (rows %d..%d): %w", s, len(parts), lo, hi, err)
			}
			return nil, 0, err
		}
		graphTime += time.Since(start)
		segs[s].segCore = &segCore{rows: rows, graph: g, entries: cfg.entries}
		lo = hi
	}
	return segs, graphTime, nil
}

// NewIndex wraps a dataset and a pre-built graph (from another index's
// Graph, a loaded file, NN-Descent, …) into an Index without constructing
// anything. The graph must cover exactly the samples of data.
func NewIndex(data *Matrix, g *Graph, opts ...Option) (*Index, error) {
	cfg := applyOptions(config{}, opts)
	sc, err := newSegCore(vec.RowsF32(data), g, cfg.entries)
	if err != nil {
		return nil, err
	}
	cfg.dtype = DTypeFloat32
	return &Index{segs: []seg{{segCore: sc}}, probes: &probeStats{}, nextID: checked.Int32(data.N), cfg: cfg}, nil
}

// Data returns the indexed float32 dataset in segment order, or nil for a
// uint8 index (see DataU8). Treat it as read-only: on a one-segment index
// it is the segment's own rows, otherwise a fresh concatenation of every
// segment's.
func (x *Index) Data() *Matrix { return x.rows(DTypeFloat32).F32() }

// rows returns every row of an index of element type dt in segment order —
// the one segment's own store, or a fresh concatenation of all of them — and
// the empty store for an index of the other type.
func (x *Index) rows(dt DType) vec.Rows {
	switch {
	case x.DType() != dt:
		return vec.Rows{}
	case len(x.segs) == 1:
		return x.segs[0].rows
	}
	all, row := x.segs[0].rows.Alloc(x.N()), 0
	for _, s := range x.segs {
		all.Copy(row, s.rows, 0, s.rows.N)
		row += s.rows.N
	}
	return all
}

// mono reports the one-segment case in which row i is external id i: the
// segment's graph is then a graph over the whole dataset in id order.
func (x *Index) mono() bool {
	return len(x.segs) == 1 && x.segs[0].ids == nil && x.segs[0].base == 0
}

// Graph returns the k-NN graph over the whole dataset, which exists exactly
// when Sharded reports false; otherwise nil (each segment has its own graph
// over its own rows). Treat it as read-only.
func (x *Index) Graph() *Graph {
	if !x.mono() {
		return nil
	}
	return x.segs[0].graph
}

// Sharded reports whether the index is anything but one segment whose row
// i is external id i. It follows the index's state, not its history:
// WithShards(n > 1), Append and most compactions make it true, and a
// compaction that ends in one segment holding ids 0..N-1 makes it false
// again.
func (x *Index) Sharded() bool { return !x.mono() }

// Shards returns the number of segments: 1 for a monolithic index.
func (x *Index) Shards() int { return len(x.segs) }

// N returns the number of indexed samples.
func (x *Index) N() int {
	n := 0
	for _, s := range x.segs {
		n += s.rows.N
	}
	return n
}

// Dim returns the dimensionality of the indexed samples.
func (x *Index) Dim() int { return x.segs[0].rows.Dim }

// Clusters returns the clustering computed at Build time via WithClusters,
// or nil when none was requested.
func (x *Index) Clusters() *Result { return x.clusters }

// GraphTime returns the wall clock spent on graph construction (summed
// across shards for a sharded build); zero for indexes over pre-built or
// loaded graphs.
func (x *Index) GraphTime() time.Duration { return x.graphTime }

// Cluster partitions the indexed dataset into k clusters with
// graph-supported boost k-means (Alg. 2). Options given here override the
// Build-time options (seed, epoch cap, trace, traditional, progress). The
// call only reads the index, so any number of clusterings — at the same or
// different k — may run concurrently with each other and with searches.
// ctx cancellation is honoured between epochs. Clustering needs float32
// rows and one graph over all of them in id order with no row deleted; an
// index in any other state returns an error naming what is in the way.
func (x *Index) Cluster(ctx context.Context, k int, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &x.segs[0]
	switch {
	case len(x.segs) > 1:
		return nil, fmt.Errorf("gkmeans: clustering needs one k-NN graph over the whole dataset; this index has %d segments (Compact them into one first)", len(x.segs))
	case !x.mono():
		return nil, fmt.Errorf("gkmeans: clustering labels row i as id i; this index's one segment carries an id map or a non-zero base (%d), so its rows are no longer ids 0..N-1", s.base)
	case s.dead() > 0:
		return nil, fmt.Errorf("gkmeans: clustering would include %d deleted rows; compact the index first", s.dead())
	case x.DType() != DTypeFloat32:
		return nil, fmt.Errorf("gkmeans: clustering needs float32 data; a %s index cannot cluster (build with DTypeFloat32)", x.DType())
	}
	cfg := applyOptions(x.cfg, opts)
	cc := core.Config{
		K:           k,
		MaxIter:     cfg.maxIter,
		Seed:        cfg.seed,
		Trace:       cfg.trace,
		Traditional: cfg.traditional,
		Interrupt:   ctx.Err,
	}
	if cfg.progress != nil {
		progress := cfg.progress
		cc.OnEpoch = func(epoch, maxIter int) { progress("cluster", epoch, maxIter) }
	}
	res, err := core.Cluster(s.rows.F32(), s.graph, cc)
	if err != nil {
		return nil, err
	}
	return fromCore(res, s.graph, 0), nil
}
