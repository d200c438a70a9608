package client

// Wire types of the gkserved HTTP/JSON API, shared by this client and the
// server implementation (gkmeans/internal/server) so the two cannot drift.
// All endpoints exchange JSON; errors are `{"error": "..."}` with a
// non-2xx status code.

// Neighbor is one search result on the wire: a sample id and its squared
// Euclidean distance, mirroring gkmeans.Neighbor.
type Neighbor struct {
	ID   int32   `json:"id"`
	Dist float32 `json:"dist"`
}

// SearchRequest is the body of POST /v1/indexes/{name}/search. Exactly one
// of Query (single) or Queries (batch) must be set. TopK is the number of
// neighbours to return; Ef bounds the candidate pool and follows the
// library defaulting (ef <= 0 selects max(4·topK, 32), ef < topK is raised
// to topK). NProbe caps how many shards a routed index (gkmeans.WithRouting)
// scans per query: 0 probes every shard, as do values at or above the shard
// count, and any positive value on an unrouted index is rejected with 400
// rather than silently ignored.
type SearchRequest struct {
	Query   []float32   `json:"query,omitempty"`
	Queries [][]float32 `json:"queries,omitempty"`
	TopK    int         `json:"top_k"`
	Ef      int         `json:"ef,omitempty"`
	NProbe  int         `json:"nprobe,omitempty"`
	// TimeoutMS is the request's deadline budget in milliseconds: the
	// server answers 504 if the search has not completed within it. It can
	// only tighten the server-wide request timeout, never extend it; 0
	// means no request-supplied deadline. The Go client fills it from the
	// context deadline automatically.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SearchResponse carries one sorted neighbour list per query; a single-query
// request gets exactly one list.
type SearchResponse struct {
	Results [][]Neighbor `json:"results"`
}

// ClusterRequest is the body of POST /v1/indexes/{name}/cluster: cluster the
// indexed dataset into K clusters over the served k-NN graph. Labels and
// centroids are opt-in because they scale with n and k×d respectively.
type ClusterRequest struct {
	K             int   `json:"k"`
	MaxIter       int   `json:"max_iter,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	WithLabels    bool  `json:"with_labels,omitempty"`
	WithCentroids bool  `json:"with_centroids,omitempty"`
}

// ClusterResponse summarises a clustering run.
type ClusterResponse struct {
	K          int         `json:"k"`
	Iters      int         `json:"iters"`
	Distortion float64     `json:"distortion"`
	Labels     []int       `json:"labels,omitempty"`
	Centroids  [][]float32 `json:"centroids,omitempty"`
}

// RegisterRequest is the body of POST /v1/indexes: load a persisted index
// (a .gkx file written by gkmeans.SaveIndex) from the server's filesystem
// and serve it under Name.
type RegisterRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

// InsertRequest is the body of POST /v1/indexes/{name}/insert: append
// Vectors (each of the index's dimensionality) to the served index. The
// server assigns consecutive external ids and, when running with a data
// directory, fsyncs the vectors to the index's write-ahead log before
// responding. Inserted rows become searchable when the server's memtable
// threshold triggers a shard build (Flushed reports whether this request
// did).
type InsertRequest struct {
	Vectors [][]float32 `json:"vectors"`
}

// InsertResponse reports the ids assigned to an insert: FirstID through
// FirstID+Count-1, in the order the vectors were sent. Epoch is the
// index's version after the insert; Pending counts rows buffered but not
// yet built into a searchable shard.
type InsertResponse struct {
	FirstID int32  `json:"first_id"`
	Count   int    `json:"count"`
	Epoch   uint64 `json:"epoch"`
	Flushed bool   `json:"flushed"`
	Pending int    `json:"pending"`
}

// DeleteRequest is the body of POST /v1/indexes/{name}/delete: tombstone
// the rows with the given external ids. Deleted rows disappear from every
// subsequent search; any unknown id rejects the whole request (400) and
// nothing is deleted.
type DeleteRequest struct {
	IDs []int32 `json:"ids"`
}

// DeleteResponse reports an applied delete. Epoch is the index's version
// after the delete.
type DeleteResponse struct {
	Deleted int    `json:"deleted"`
	Epoch   uint64 `json:"epoch"`
}

// IndexInfo describes one served index (GET /v1/indexes). Shards is 1 for
// a monolithic index and the shard count for one built with
// gkmeans.WithShards or grown by inserts — sharded indexes serve searches
// like any other, but refuse clustering. Epoch increments every time a
// mutation (insert flush, delete, compaction) publishes a new index
// version; Live/Deleted split N by tombstone state, and Pending counts
// inserted rows buffered ahead of their shard build.
type IndexInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Dim  int    `json:"dim"`
	// DType is the element type the index stores its dataset in ("float32"
	// or "uint8"). On a uint8 index every query and inserted vector value
	// must be an exact byte (an integer in [0,255]); the server rejects
	// anything else with 400.
	DType       string `json:"dtype"`
	Shards      int    `json:"shards"`
	HasClusters bool   `json:"has_clusters"`
	// Routed reports whether the index carries per-shard routing centroids
	// (gkmeans.WithRouting), which makes SearchRequest.NProbe usable.
	Routed  bool   `json:"routed,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Live    int    `json:"live"`
	Deleted int    `json:"deleted"`
	Pending int    `json:"pending"`
}

// ListResponse is the body of GET /v1/indexes.
type ListResponse struct {
	Indexes []IndexInfo `json:"indexes"`
}

// IndexStats extends IndexInfo with serving counters
// (GET /v1/indexes/{name}/stats). Queries counts every query answered
// (single queries, cache hits included, and batch rows); Batches counts
// SearchBatch executions on the hot path, so Queries > Batches means the
// micro-batching coalescer merged concurrent single-query requests. The
// server's /metrics renders the same snapshot, one series per numeric field.
type IndexStats struct {
	IndexInfo
	Path             string `json:"path,omitempty"`
	Queries          int64  `json:"queries"`
	Batches          int64  `json:"batches"`
	MaxBatch         int64  `json:"max_batch"`
	BatchRequests    int64  `json:"batch_requests"`
	ClusterRequests  int64  `json:"cluster_requests"`
	CoalesceWindowNS int64  `json:"coalesce_window_ns"`

	// Coalescer queueing: Queued counts the single queries that waited in a
	// group for company, QueueWaitNS the total nanoseconds they waited before
	// their batch started. A lone search never waits, so QueueWaitNS/Queued
	// is the mean wait of the queries that did.
	Queued      int64 `json:"queued"`
	QueueWaitNS int64 `json:"queue_wait_ns"`

	// Hot-path totals from the index itself: distance-kernel evaluations
	// (the dominant per-query cost) and candidate expansions across every
	// search served. DistanceComps/Queries is the average per-query work —
	// the quantity the searcher's early-termination rule bounds.
	DistanceComps      uint64 `json:"distance_comps"`
	ExpandedCandidates uint64 `json:"expanded_candidates"`

	// Fan-out totals. ShardsProbed counts the segment searches executed
	// across every search on every index — one per query on a one-segment
	// index, the shard count per query on a full fan-out, fewer when routing
	// skips shards; RoutedQueries counts the queries whose nprobe skipped at
	// least one shard and stays zero on unrouted indexes.
	// ShardsProbed/Queries against the shard count shows how much fan-out
	// routing saves.
	ShardsProbed  uint64 `json:"shards_probed,omitempty"`
	RoutedQueries uint64 `json:"routed_queries,omitempty"`

	// Mutation counters. Inserts and Deletes count accepted vectors and
	// ids; Flushes counts memtable→shard builds; Compactions counts
	// background/explicit compaction rounds. Durable reports whether the
	// index is backed by a write-ahead log.
	Inserts     int64 `json:"inserts"`
	Deletes     int64 `json:"deletes"`
	Flushes     int64 `json:"flushes"`
	Compactions int64 `json:"compactions"`
	Durable     bool  `json:"durable"`

	// Query-cache counters, all zero when the server runs without a cache
	// (gkserved -cache 0). A hit is a single-query search answered from
	// the epoch-pinned cache, bit-identical to the cold search it saved;
	// misses include epoch invalidations after mutations. CacheEntries is
	// the resident entry count at snapshot time.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	CacheEntries   int   `json:"cache_entries,omitempty"`
}
