// Package gkmeans is a Go implementation of "Fast k-means based on KNN
// Graph" (Deng & Zhao, ICDE 2018): k-means clustering whose per-iteration
// cost is independent of the cluster count k, plus approximate
// nearest-neighbour search over the same graph.
//
// # The algorithm
//
// Traditional k-means spends O(n·d·k) per iteration assigning every sample
// to its closest of k centroids. GK-means removes k from that bound: an
// approximate k-nearest-neighbour graph is built first, and during the
// clustering iteration each sample is compared only against the clusters in
// which its κ nearest neighbours currently live (κ ≈ 50 ≪ k). Because near
// neighbours overwhelmingly belong to the same cluster, quality barely
// drops while large-k workloads speed up by orders of magnitude.
//
// The k-NN graph itself is built by the same machinery (the paper's
// intertwined process): repeatedly partition the data into many tiny
// clusters with graph-supported k-means, exhaustively compare samples
// inside each tiny cluster, and feed closer pairs back into the graph.
//
// The optimisation engine underneath is boost k-means: incremental,
// objective-driven single-sample moves that converge to lower distortion
// than Lloyd iterations.
//
// # The Index
//
// The package API centres on Index: an immutable bundle of a dataset, its
// k-NN graph and an optional clustering — the one artefact the paper builds
// once and then serves two workloads from. Build constructs it with
// functional options and honours context cancellation between graph rounds
// and clustering epochs:
//
//	data := gkmeans.FromRows(rows)          // n×d float32 samples
//	idx, err := gkmeans.Build(ctx, data,
//	        gkmeans.WithKappa(50),          // graph neighbours per sample
//	        gkmeans.WithClusters(1000),     // also cluster into k=1000
//	)
//	res := idx.Clusters()                   // labels, centroids, distortion
//
// An Index is safe for concurrent use: Search, SearchBatch and Cluster may
// be called from any number of goroutines with no per-goroutine plumbing —
// per-query scratch is pooled internally.
//
//	nbs := idx.Search(q, 10, 64)            // top-10, pool size ef=64
//	all := idx.SearchBatch(queries, 10, 64) // fan a query set across cores
//	res, err := idx.Cluster(ctx, 500)       // another k, same graph
//
// Search walks the k-NN graph best-first over a flat CSR adjacency,
// keeping the ef closest candidates found so far, and terminates early:
// expansion stops once the best unexpanded candidate can no longer improve
// the current top-topK and a further patience window of expansions has not
// improved them either. ef is the recall/latency knob — it bounds both
// pool admission and the worst-case work — while easy queries finish well
// below that budget. Index.SearchStats reports the cumulative work
// (distance computations, candidate expansions) so the per-query cost is
// observable in production; the search-inproc workload of the repository's
// benchmark (go run ./benchmark) measures latency percentiles, batch
// throughput and recall.
//
// Every Index has one shape: a header (the build options, an optional
// router and clustering) over a list of segments, each a run of rows and
// the k-NN graph over them; the rows are stored once, in their segment.
// Build makes one segment — the monolithic index, whose graph spans the whole dataset and
// which is therefore the one that can cluster. WithShards makes several,
// Append adds one, Compact folds several into one; "monolithic" and
// "sharded" are the one- and many-segment cases of the same type, and
// Sharded reports which one an index is in now, whatever its history.
//
// A built index persists as a versioned binary container (".gkx", holding
// the dataset, graph(s) and clustering) and loads back ready to serve,
// with search results identical to the saved index, and with the build
// options (κ, ξ, τ, seed, builder) that Append and Compact build new shards
// with. There is one written layout (version 7) for every state an index
// can be in — one segment or many, mutation state (tombstones, id maps,
// generations — see Mutation below), a router (see Sharding), uint8 rows
// (see the dtype section), a clustering. Files written by earlier releases
// (versions 1–6) load unchanged, build new shards with the default
// options, and are rewritten as version 7 by the next save. See
// ARCHITECTURE.md for the byte-level format reference.
//
//	err = gkmeans.SaveIndex("sift.gkx", idx)
//	idx, err = gkmeans.LoadIndex("sift.gkx")
//	n, err := idx.WriteTo(w)                // or stream it anywhere
//	idx, err = gkmeans.ReadIndexFrom(r)
//
// Wrap a graph built elsewhere (a loaded file, NN-Descent, …) with NewIndex
// to search or cluster over it.
//
// # Sharding
//
// WithShards(n) scales an index past what one graph build can hold: Build
// partitions the dataset into n contiguous shards (zero-copy views), runs
// the full build pipeline once per shard — so peak build memory is one
// shard's, not the corpus's — and returns an index of n segments whose
// Search fans out across them concurrently, merging the per-shard top-k
// into one global top-k with global ids:
//
//	idx, err := gkmeans.Build(ctx, data, gkmeans.WithShards(4))
//	nbs := idx.Search(q, 10, 64)            // one goroutine per shard
//
// Sharded search is deterministic (distance ties merge by id), stats
// aggregate across shards, persistence uses the multi-segment layout, and
// gkserved serves sharded indexes transparently. The one restriction:
// clustering needs a global graph, so WithShards excludes WithClusters
// and Index.Cluster. Every shard is searched with the full ef budget and
// brings its own entry points, so recall tracks the monolithic index on
// the same data — but the full fan-out also multiplies the per-query work
// by the shard count.
//
// WithRouting(k) removes that multiplier. A routed build partitions rows
// into spatially coherent, size-balanced shards (two levels: the 2M tree
// of Alg. 1 plus one nearest-centre pass micro-clusters the data, then
// whole micro-clusters are grouped onto k-means anchors; external ids
// still name the caller's rows) and keeps k routing centroids per shard.
// At search time the query is ranked against the centroids and only the
// nprobe nearest shards are searched:
//
//	idx, err := gkmeans.Build(ctx, data,
//	        gkmeans.WithShards(4),
//	        gkmeans.WithRouting(32),      // 32 routing centroids per shard
//	)
//	nbs := idx.SearchNProbe(q, 10, 64, 2)     // probes the 2 nearest shards
//	all := idx.SearchBatchNProbe(qs, 10, 64, 2)
//	nbs  = idx.Search(q, 10, 64)              // probes all 4
//
// The trade is explicit: the benchmark's traced run reports the latency at
// nprobe 1, 2 and all shards (gkmeans.search_np1_us, _np2_us, _npall_us)
// and the recall given up at nprobe 2 (gkmeans.routing_recall_loss). An
// nprobe of zero or less, or at or past the shard count, skips the router
// entirely and is bit-identical to the full fan-out — results and work
// counters; so do Search and SearchBatch. SearchStats reports ShardsProbed
// (segment searches executed, on every index) and RoutedQueries so the
// probe behaviour is observable in production; Routed and RoutingCentroids
// report the configuration. Append and Compact keep routing intact by
// computing centroids for the shards they create.
//
// # Mutation
//
// An Index value never changes, but an index is not frozen at Build:
// Append, Delete and Compact are copy-on-write mutators, each returning a
// new *Index that shares every unchanged segment — rows, graph and search
// structures — with its receiver. Readers
// of the old value keep answering from a consistent snapshot; a serving
// layer promotes the successor with one atomic swap.
//
//	idx2, err := idx.Append(ctx, fresh)  // one new shard; ids from idx.IDBound()
//	idx3, err := idx2.Delete(17, 205)    // tombstones, skipped by every search
//	idx4, err := idx3.Compact(ctx)       // reclaim dead rows, merge fragments
//
// Append builds a graph over just the new vectors and adds it as a shard
// (the fan-out merge already combines it at search time), assigning
// external ids from the monotone IDBound counter. Delete marks rows in
// per-shard tombstone bitmaps. Compact rebuilds the named shards (all,
// when none are named) from their live rows only, keeping an explicit id
// map so an external id names the same vector for its whole life and
// search results are identical before and after. A compaction that ends in
// one segment holding ids 0..N-1 is a monolithic index again: it has a
// Graph and can Cluster. ShardInfos, Live and
// Deleted expose the per-shard state compaction decisions are made from —
// the background compactor in gkserved feeds them through a policy to
// pick tombstone-heavy and fragmented shards.
//
// # The uint8 distance path
//
// Byte-valued corpora (SIFT1B-style .bvecs) do not need float32 storage:
// WithDType(DTypeUint8) keeps the dataset at one byte per value and scans
// candidates with exact integer kernels, and BuildU8 skips the float
// detour entirely for data loaded as bytes:
//
//	data, err := dataset.LoadBvecsU8("sift.bvecs", 0)
//	idx, err := gkmeans.BuildU8(ctx, data, gkmeans.WithShards(4))
//
// Because byte values and their squared-distance partial sums are exact
// in float32, and graphs are built over a transient widened copy of each
// shard, a uint8 index returns bit-identical results and work counters
// to the float32 index on the same data — at a quarter of the dataset
// memory (50k×128 bytes = 6.4 MB vs 25.6 MB as float32) and a quarter of
// the scan bandwidth per candidate. Queries remain
// []float32 but every value must be an exact byte (an integer in 0–255):
// Search panics otherwise, like a dimension mismatch, CheckByteValues
// pre-validates, and gkserved turns violations into 400s. Sharding,
// routing and the whole mutation chain preserve the dtype; clustering
// requires float32 centroids and is the one excluded feature. DType,
// DataU8 and ParseDType round out the API.
//
// # Build parallelism and determinism
//
// WithWorkers bounds the goroutines used by the whole build pipeline —
// random graph initialisation, NN-Descent local joins, the per-round
// in-cluster refinement of the intertwined process, and the exact
// ground-truth scans behind ExactNeighbors — as well as SearchBatch. The
// intertwined process grows each round's 2M tree, which reads no graph,
// ahead of the round on whichever of those workers the current round
// leaves idle, so the tree leaves the critical path without a build ever
// keeping more than WithWorkers goroutines busy. Each tree in flight holds
// its own gathered copy of the rows (n·d·4 bytes plus about 50 bytes of
// per-row state on 64-bit), so peak build memory holds up to
// min(workers, τ) of them. The build also keeps every round's cluster
// labels, τ·n·4 bytes by the last round, so that in-cluster refinement
// never compares a pair that already shared a cluster in an earlier round.
// Builds are worker-count deterministic: every random draw comes from a
// per-node stream derived from (seed, round, node) and cross-node updates
// merge in a fixed order, so the same WithSeed yields the bit-identical
// graph at any worker count. WithGraphBuilder selects between the paper's
// intertwined construction (BuilderGKMeans, the default) and the parallel
// NN-Descent baseline (BuilderNNDescent):
//
//	idx, err := gkmeans.Build(ctx, data,
//	        gkmeans.WithWorkers(8),
//	        gkmeans.WithGraphBuilder(gkmeans.BuilderNNDescent),
//	)
//
// The benchmark's cluster-offline workload times the build (build_s, and
// on a traced run core.graph_build_s, core.graph_rounds,
// core.graph_dist_comps and core.build_speedup_workers); see
// benchmark/README.md.
//
// # Serving an index
//
// A persisted index can be served over HTTP without linking this library:
// the gkserved daemon (cmd/gkserved) loads .gkx files into a named
// registry and exposes search, insert, delete, clustering, index listing,
// hot registration and stats as a JSON API, plus Prometheus /metrics. Its
// hot path micro-batches without ever holding a lone request: a
// single-query search starts at once when nothing with its parameters is
// in flight, and searches that arrive beside a running one are coalesced
// for a short window and answered through one SearchBatch call, so under
// concurrent load callers share the worker pool. On SIGTERM it drains
// in-flight work before exiting.
//
//	gkserved -listen :8080 -index sift=sift.gkx -data /var/lib/gkserved \
//	    -timeout 2s -max-inflight 256 -cache 65536
//
// The read path is hardened for production traffic: -timeout bounds
// every search (clients tighten it per request via their context
// deadline; expiry answers 504 without disturbing the rest of the
// micro-batch), -max-inflight sheds excess concurrency with 429 +
// Retry-After before reading the body, and -cache adds a per-index LRU
// of single-query results invalidated through the index epoch — a hit is
// bit-identical to the cold search and can never cross a mutation. The
// OPERATIONS.md runbook documents every flag and metric family.
//
// Writes ride the mutation API: inserts buffer in a memtable and build a
// new shard at a threshold, deletes tombstone immediately, and each index
// swaps atomically under live searches. With -data set, every mutation is
// appended to a per-index write-ahead log and fsync'd before it is
// acknowledged, and the log replays over the latest checkpoint on
// startup — a crashed server restarts into exactly the state it acked. A
// background compactor rebuilds tombstone-heavy shards off the serving
// path and checkpoints.
//
// The typed Go client lives in gkmeans/client; results are identical to
// calling Index.Search in-process, the context deadline is forwarded as
// the request's timeout_ms, and retries follow the serving contract (429
// waits out Retry-After, 502/503/504 back off boundedly, other 4xx never
// retry):
//
//	cl := client.New("http://localhost:8080")
//	nbs, err := cl.Search(ctx, "sift", q, 10, 64)
//	nbs, err = cl.SearchNProbe(ctx, "sift", q, 10, 64, 2)  // routed indexes
//	ins, err := cl.Insert(ctx, "sift", vectors)
//	del, err := cl.Delete(ctx, "sift", 17, 205)
//
// See examples/serve for the full build → persist → serve → query → drain
// walkthrough in one process.
//
// # Further reading
//
// BoostKMeans (the exhaustive quality yardstick) is not graph-based and is
// a free function. See examples/quickstart for a full walkthrough,
// the Example functions in this package for runnable snippets that CI
// executes, and ARCHITECTURE.md for the layer map and on-disk formats.
package gkmeans
