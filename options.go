package gkmeans

import (
	"fmt"
	"slices"

	"gkmeans/internal/core"
)

// Option is a functional option for Build, NewIndex and Index.Cluster. The
// zero configuration reproduces the paper's standard setup (§4.4): κ=50,
// ξ=50, τ=10, 50 optimisation epochs, GOMAXPROCS workers.
type Option func(*config)

// config is the resolved option set. Zero values mean "use the paper
// default"; defaults are applied by the layer that consumes each field so
// they stay defined in exactly one place.
type config struct {
	kappa   int
	xi      int
	tau     int
	seed    int64
	workers int
	entries int
	builder string
	shards  int
	routing int   // routing centroids per shard; 0 = no router
	dtype   DType // dataset element type; zero value = float32

	maxIter     int
	trace       bool
	traditional bool

	clusterK int

	progress func(stage string, done, total int)
}

func applyOptions(base config, opts []Option) config {
	for _, o := range opts {
		o(&base)
	}
	return base
}

// WithKappa sets the number of graph neighbours per sample (κ). Larger
// values raise clustering and search quality at higher cost. Default 50;
// at most 1024.
func WithKappa(kappa int) Option { return func(c *config) { c.kappa = kappa } }

// WithXi sets the refinement cluster size used while building the graph (ξ).
// Recommended range 40–100. Default 50; at most 4096.
func WithXi(xi int) Option { return func(c *config) { c.xi = xi } }

// WithTau sets the number of graph construction rounds (τ). 10 suffices for
// clustering; up to 32 pays off when the graph is reused for ANN search.
// Default 10; at most 256.
func WithTau(tau int) Option { return func(c *config) { c.tau = tau } }

// WithSeed makes graph construction and clustering deterministic.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers bounds parallelism across the whole build-and-serve
// pipeline: a graph build keeps at most this many goroutines busy between
// random initialisation, NN-Descent local joins, in-cluster refinement and
// the 2M trees that later rounds grow ahead on lanes the current round
// leaves idle; Cluster (and WithClusters, and a routed build's partition)
// grows its initial 2M tree on this many; and batch search runs on at most
// this many; <=0 uses GOMAXPROCS. The built graph and every clustering are
// bit-identical for every worker count — randomness is derived per node
// or per round, never per worker — so changing WithWorkers trades only
// wall-clock, never results.
func WithWorkers(workers int) Option { return func(c *config) { c.workers = workers } }

// Graph builder names for WithGraphBuilder, aliased from the core layer
// that dispatches on them so the public names can never drift from what
// Build accepts.
const (
	// BuilderGKMeans is the paper's intertwined construction (Alg. 3):
	// alternate graph-supported clustering and in-cluster refinement.
	BuilderGKMeans = core.BuilderGKMeans
	// BuilderNNDescent is the KGraph baseline (Dong et al., WWW 2011):
	// parallel local joins over sampled neighbours of neighbours.
	BuilderNNDescent = core.BuilderNNDescent
)

// WithGraphBuilder selects the graph construction algorithm used by Build:
// BuilderGKMeans (the default) or BuilderNNDescent. Both honour WithSeed,
// WithKappa, WithTau and WithWorkers; WithXi only affects BuilderGKMeans.
// For BuilderNNDescent, WithTau caps the NN-Descent rounds (its update-rate
// termination usually stops earlier; <=0 keeps its 30-round default).
func WithGraphBuilder(builder string) Option { return func(c *config) { c.builder = builder } }

// WithEntryPoints sets the number of ANN search entry points (<=0 selects
// 16; raise it for data with many well-separated clusters). With WithShards
// the count applies to every shard independently. The entries are grouped
// in fours, so once they outnumber ef a query costs about |E|/4 group
// centroid distances plus the entries of the nearby groups, not |E|.
func WithEntryPoints(entries int) Option { return func(c *config) { c.entries = entries } }

// WithShards makes Build partition the dataset into n contiguous shards and
// build one independent sub-index per shard (each through the full parallel
// build pipeline). Search and SearchBatch fan out across the shards and
// merge the per-shard top-k into one global top-k, so results carry global
// ids exactly as if the index were monolithic; SearchStats aggregates the
// per-shard counters. Sharding bounds the peak memory of one graph build to
// a single shard and turns idle cores into search throughput, at the price
// of searching every shard per query.
//
// n <= 1 builds the usual monolithic index. Build clamps n so every shard
// holds at least two samples. A sharded index persists like any other (see
// SaveIndex: the container's segment table holds one entry per shard) and
// serves through gkserved like any other index; it cannot be clustered, so combining WithShards and
// WithClusters makes Build return an error.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithRouting makes a sharded Build also compute a shard router:
// centroidsPerShard small k-means centroids per shard (built with the same
// seeded, worker-count-deterministic machinery as everything else), held in
// the index and persisted with it. A routed index can answer a query by
// probing only the nprobe shards whose centroids are closest instead of
// broadcasting to all of them — see Index.SearchNProbe for the
// recall-vs-work trade. Routing changes how Build partitions the data:
// instead of slicing rows in input order, a coarse k-means pass groups
// similar rows into the same shard (external ids still name the original
// input rows, via per-shard id maps), because routing contiguous slices of
// arbitrarily ordered input would discard recall for no saved work.
//
// centroidsPerShard <= 0 disables routing. WithRouting requires
// WithShards(n), n > 1, and Build returns an error otherwise; if the
// dataset is too small to actually split, the clamp to a monolithic index
// drops the router too (a monolithic index has nothing to route).
//
// Routing only ever narrows a search on request: Search, SearchBatch and
// an nprobe of 0 or at least the shard count search every shard, and the
// results are bit-identical to the unrouted full fan-out.
func WithRouting(centroidsPerShard int) Option {
	return func(c *config) { c.routing = centroidsPerShard }
}

// WithMaxIter caps the clustering optimisation epochs. Default 50; a run
// stops earlier at the first epoch with no accepted move.
func WithMaxIter(maxIter int) Option { return func(c *config) { c.maxIter = maxIter } }

// WithTrace records per-epoch distortion history in clustering results.
func WithTrace() Option { return func(c *config) { c.trace = true } }

// WithTraditional switches the optimisation step from boost k-means moves
// to nearest-centroid moves (the paper's GK-means− ablation; lower quality,
// same speed).
func WithTraditional() Option { return func(c *config) { c.traditional = true } }

// WithClusters makes Build also cluster the dataset into k clusters right
// after the graph is ready; the result is available from Index.Clusters and
// persists with the index.
func WithClusters(k int) Option { return func(c *config) { c.clusterK = k } }

// WithProgress installs a progress callback. It is invoked with stage
// "graph" after every construction round and stage "cluster" after every
// optimisation epoch, with done out of total units complete. The callback
// must be safe for use from the goroutine that runs Build or Cluster.
func WithProgress(fn func(stage string, done, total int)) Option {
	return func(c *config) { c.progress = fn }
}

// Upper limits on κ, ξ and τ, far above any useful setting (the paper's
// are tens). Build and NewIndex refuse more, and so does the .gkx reader:
// a loaded index builds every Append and Compact with the file's options,
// and a build allocates per round, per neighbour and per refinement
// cluster, so a corrupt header must not be able to ask for 2³¹ of them.
const (
	maxKappa = 1 << 10
	maxXi    = 1 << 12
	maxTau   = 1 << 8
)

// checkGraph refuses graph options no build takes: a builder name Build
// does not know, or κ, ξ or τ above its limit.
func (c config) checkGraph() error {
	if !slices.Contains(builderWords[:], c.builder) {
		return fmt.Errorf("gkmeans: unknown graph builder %q (want %q or %q)", c.builder, BuilderGKMeans, BuilderNNDescent)
	}
	for _, o := range [...]struct {
		name     string
		v, limit int
	}{{"kappa", c.kappa, maxKappa}, {"xi", c.xi, maxXi}, {"tau", c.tau, maxTau}} {
		if o.v > o.limit {
			return fmt.Errorf("gkmeans: build option %s = %d exceeds its limit %d", o.name, o.v, o.limit)
		}
	}
	return nil
}

// resolvedTau mirrors the builders' round-cap defaults so progress totals
// match the number of rounds actually run (NN-Descent may stop earlier via
// its update-rate termination).
func (c config) resolvedTau() int {
	if c.tau > 0 {
		return c.tau
	}
	if c.builder == BuilderNNDescent {
		return 30
	}
	return 10
}
