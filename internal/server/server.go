// Package server implements gkserved's HTTP serving layer: a registry of
// named gkmeans indexes served over a /v1 JSON API, with micro-batched
// single-query search (concurrent requests coalesce into SearchBatch calls
// that share the worker pool), graph-supported clustering, hot index
// registration, instance-scoped metrics (Prometheus text format at
// /metrics) and graceful drain.
//
// The read path is hardened for production traffic: every search passes
// deadline → limiter → cache → coalescer → fan-out. Per-request deadlines
// (Config.RequestTimeout, tightened per request by timeout_ms) answer 504
// when the time budget expires, without costing a coalesced batch its
// other members; the concurrency limiter (Config.MaxInFlight) sheds excess
// load with 429 + Retry-After before queueing collapses tail latency; and
// the per-index query cache (Config.CacheSize) serves repeated single
// queries bit-identically to a cold search, keyed by (query bytes, topK,
// ef, nprobe) and invalidated by the index epoch so a hit can never cross
// a mutation. See OPERATIONS.md for the operator view of all of it.
//
// Served indexes are mutable: /insert appends vectors and /delete
// tombstones rows. Each mutation publishes a copy-on-write index snapshot
// through an epoch-versioned atomic cell, so searches are never blocked by
// writers and never see a half-applied mutation. With Config.DataDir set,
// every accepted write is fsynced to a per-index write-ahead log before the
// response, and replayed on the next startup; a background compactor folds
// tombstoned and fragmented shards back into dense ones and checkpoints the
// result. See mutation.go for the write path.
//
// The wire types live in gkmeans/client so the Go client and this server
// share one definition of the API.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/store"
	"gkmeans/internal/wal"
)

// Defaults for the micro-batching coalescer, the write path and the
// hardening knobs; see Config.
const (
	DefaultWindow            = time.Millisecond
	DefaultMaxBatch          = 32
	DefaultMemtableThreshold = 256
	// DefaultRetryAfter is the Retry-After hint sent with a 429 when the
	// concurrency limiter sheds a request.
	DefaultRetryAfter = time.Second
)

// maxBodyBytes bounds request bodies (a batch of a few thousand
// high-dimensional queries fits comfortably).
const maxBodyBytes = 64 << 20

// Config tunes a Server. The zero value serves with the defaults.
type Config struct {
	// Window is how long a single-query search that arrives while another
	// of the same parameters is in flight collects company before its group
	// runs as one batch; a lone search never waits. 0 selects DefaultWindow,
	// and a negative Window (or MaxBatch 1) disables batching entirely.
	Window time.Duration
	// MaxBatch caps how many collected single queries share one SearchBatch
	// call; a group that reaches it starts at once. 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// DataDir makes mutations durable: each index keeps a write-ahead log
	// at DataDir/<name>.wal (fsynced before an insert or delete is
	// acknowledged, replayed on the next registration of the same name) and
	// compaction checkpoints the index to DataDir/<name>.gkx. Empty keeps
	// mutations in memory only.
	DataDir string
	// MemtableThreshold is how many inserted vectors accumulate before
	// they are built into a searchable shard; 0 selects
	// DefaultMemtableThreshold. Values below 2 are raised to 2 (a shard
	// graph needs at least two rows). Buffered rows are durable (with
	// DataDir) but not searchable until flushed.
	MemtableThreshold int
	// Policy decides which shards the background compactor rebuilds. The
	// zero value selects store.DefaultPolicy.
	Policy store.Policy
	// CompactInterval is the period of the background compactor; 0
	// disables it (CompactNow still works).
	CompactInterval time.Duration

	// RequestTimeout is the server-wide deadline for search and cluster
	// requests: work still queued or running when it expires is answered
	// with 504. A request can only tighten it (SearchRequest.TimeoutMS),
	// never extend it. 0 disables the server-wide deadline.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently admitted search and cluster requests;
	// the excess is shed immediately with 429 + Retry-After instead of
	// queueing into collapsed tail latency. 0 disables the limiter.
	MaxInFlight int
	// RetryAfter is the Retry-After hint attached to shed (429) responses;
	// 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
	// CacheSize is the per-index query-cache capacity in entries (cached
	// single-query results keyed by query bytes, topK, ef and nprobe,
	// invalidated by the index epoch). 0 disables caching.
	CacheSize int

	// Logger receives serving events; nil discards them.
	Logger *log.Logger
}

// Server serves a registry of indexes over HTTP. Create one with New,
// register indexes, then mount Handler on any http.Server. Safe for
// concurrent use.
type Server struct {
	cfg     Config
	reg     *registry
	met     *metrics
	limiter *limiter
	mux     *http.ServeMux

	deadlineExceeded atomic.Int64 // searches answered with 504

	draining chan struct{} // closed when shutdown begins
}

// New builds a Server with no indexes registered.
func New(cfg Config) *Server {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MemtableThreshold == 0 {
		cfg.MemtableThreshold = DefaultMemtableThreshold
	}
	if cfg.MemtableThreshold < 2 {
		cfg.MemtableThreshold = 2
	}
	if !cfg.Policy.Enabled() {
		cfg.Policy = store.DefaultPolicy
	}
	s := &Server{cfg: cfg, reg: newRegistry(), met: newMetrics(), draining: make(chan struct{})}
	s.limiter = newLimiter(cfg.MaxInFlight, cfg.RetryAfter)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.met.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /v1/indexes", s.met.instrument("list", s.handleList))
	s.mux.HandleFunc("POST /v1/indexes", s.met.instrument("register", s.handleRegister))
	s.mux.HandleFunc("GET /v1/indexes/{name}/stats", s.met.instrument("stats", s.handleStats))
	s.mux.HandleFunc("POST /v1/indexes/{name}/search", s.met.instrument("search", s.handleSearch))
	s.mux.HandleFunc("POST /v1/indexes/{name}/insert", s.met.instrument("insert", s.handleInsert))
	s.mux.HandleFunc("POST /v1/indexes/{name}/delete", s.met.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("POST /v1/indexes/{name}/cluster", s.met.instrument("cluster", s.handleCluster))
	s.mux.HandleFunc("GET /metrics", s.met.instrument("metrics", s.serveMetrics))
	if cfg.CompactInterval > 0 {
		go s.compactLoop()
	}
	return s
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// RegisterIndex serves an already-loaded index under name — the path used
// by tests embedding the server. When a compaction checkpoint in the data
// directory supersedes idx, the checkpoint is served instead.
func (s *Server) RegisterIndex(name string, idx *gkmeans.Index) error {
	if s.hasCheckpoint(name) {
		cp, err := s.loadCheckpoint(name, idx.Dim())
		if err != nil {
			return fmt.Errorf("index %q: %w", name, err)
		}
		idx = cp
	}
	return s.registerIndex(name, "", idx)
}

// RegisterFile loads a persisted index (gkmeans.SaveIndex) from path and
// serves it under name — the path gkserved starts with. When a compaction
// checkpoint in the data directory supersedes the file, the checkpoint is
// the one index loaded: of the file only the header is read, for the
// dimensionality the checkpoint must match.
func (s *Server) RegisterFile(name, path string) error {
	if !s.hasCheckpoint(name) {
		idx, err := gkmeans.LoadIndex(path)
		if err != nil {
			return fmt.Errorf("loading index %q from %s: %w", name, path, err)
		}
		return s.registerIndex(name, path, idx)
	}
	dim, err := gkmeans.IndexFileDim(path)
	if err != nil {
		return fmt.Errorf("loading index %q from %s: %w", name, path, err)
	}
	idx, err := s.loadCheckpoint(name, dim)
	if err != nil {
		return fmt.Errorf("index %q: %w", name, err)
	}
	return s.registerIndex(name, path, idx)
}

// hasCheckpoint reports whether a compaction checkpoint in the data
// directory supersedes the index registered under name.
func (s *Server) hasCheckpoint(name string) bool {
	return s.cfg.DataDir != "" && nameRE.MatchString(name) && fileExists(s.checkpointPath(name))
}

// loadCheckpoint loads name's compaction checkpoint, which must have dim,
// the registered index's dimensionality.
func (s *Server) loadCheckpoint(name string, dim int) (*gkmeans.Index, error) {
	cp := s.checkpointPath(name)
	idx, err := gkmeans.LoadIndex(cp)
	if err != nil {
		return nil, fmt.Errorf("loading checkpoint %s: %w", cp, err)
	}
	if idx.Dim() != dim {
		return nil, fmt.Errorf("checkpoint %s has dimensionality %d, registered index has %d", cp, idx.Dim(), dim)
	}
	return idx, nil
}

func (s *Server) registerIndex(name, path string, idx *gkmeans.Index) error {
	// Validate the name before it touches the filesystem: nameRE admits no
	// path separators or dots-only names, so DataDir/<name>.wal is safe.
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid index name %q", name)
	}
	e := newEntry(name, path, idx, s.cfg.Window, s.cfg.MaxBatch, s.cfg.CacheSize)
	e.threshold, e.durable, e.logf = s.cfg.MemtableThreshold, s.cfg.DataDir != "", s.logf
	if e.durable {
		if err := s.setupDurability(e); err != nil {
			return fmt.Errorf("index %q: %w", name, err)
		}
	}
	if err := s.reg.publish(e); err != nil {
		if e.wal != nil {
			e.wal.Close()
		}
		return err
	}
	cur := e.index()
	s.logf("serving index %q: %d×%d %s (clusters: %v, durable: %v, pending: %d)",
		name, cur.N(), cur.Dim(), cur.DType(), cur.Clusters() != nil, e.wal != nil, e.mem.Rows())
	return nil
}

// setupDurability attaches the WAL to a not-yet-published entry, which
// already holds the compaction checkpoint when one supersedes the
// registered index: open (or repair) the log, and replay every surviving
// record. The entry is still private to this goroutine, so no locking.
func (s *Server) setupDurability(e *entry) error {
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	l, err := wal.Open(s.walPath(e.name))
	if err != nil {
		return err
	}
	e.wal = l
	replayed, err := e.replayWAL()
	if err != nil {
		l.Close()
		return fmt.Errorf("replaying %s: %w", s.walPath(e.name), err)
	}
	if replayed > 0 {
		s.logf("index %q: replayed %d WAL records (%d rows pending)", e.name, replayed, e.mem.Rows())
	}
	return nil
}

func (s *Server) walPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+".wal")
}

func (s *Server) checkpointPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+".gkx")
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// BeginShutdown moves the server into draining: /healthz flips to 503 so
// load balancers stop routing here, new searches are refused with 503, and
// every open micro-batch is executed so waiting callers get their results.
// In-flight requests run to completion — pair it with http.Server.Shutdown,
// which drains connections. Idempotent.
func (s *Server) BeginShutdown() {
	select {
	case <-s.draining:
		return // already draining
	default:
	}
	close(s.draining)
	s.logf("draining: flushing open batches, refusing new work")
	s.reg.closeAll()
}

// isDraining reports whether BeginShutdown has been called.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// writeError sends the API's error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON sends a 200 with the JSON-encoded body.
func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// decodeBody strictly decodes the request body into dst; unknown fields are
// rejected so client typos surface as 400s instead of silently-default
// behaviour.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	// A body with trailing garbage ("{}{}") is malformed too.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// lookup resolves the {name} path segment against the registry, writing the
// 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown index %q", name)
		return nil, false
	}
	return e, true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.list()
	out := client.ListResponse{Indexes: make([]client.IndexInfo, 0, len(entries))}
	for _, e := range entries {
		out.Indexes = append(out.Indexes, e.info())
	}
	writeJSON(w, out)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req client.RegisterRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed register request: %v", err)
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, "register needs both name and path")
		return
	}
	if _, dup := s.reg.get(req.Name); dup {
		writeError(w, http.StatusConflict, "index %q already registered", req.Name)
		return
	}
	if err := s.RegisterFile(req.Name, req.Path); err != nil {
		// A racing registration can still lose to the registry's own
		// duplicate check after the pre-check above passed.
		code := http.StatusBadRequest
		if errors.Is(err, errDuplicate) {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	e, _ := s.reg.get(req.Name)
	writeJSON(w, e.info())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, e.stats())
}

// searchContext derives the effective deadline for one search or cluster
// request: the server-wide RequestTimeout, tightened (never extended) by a
// client-supplied timeout_ms. With neither set, the request context is
// returned as-is.
func (s *Server) searchContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && (d <= 0 || t < d) {
		d = t
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// Shed before reading the body: an overloaded server should spend as
	// close to zero work as possible on the requests it rejects.
	if !s.limiter.acquire() {
		s.limiter.reject(w)
		return
	}
	defer s.limiter.release()
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.SearchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed search request: %v", err)
		return
	}
	single := req.Query != nil
	batch := req.Queries != nil
	switch {
	case single == batch:
		writeError(w, http.StatusBadRequest, "exactly one of query and queries must be set")
		return
	case req.TopK <= 0:
		writeError(w, http.StatusBadRequest, "top_k must be positive, got %d", req.TopK)
		return
	case req.NProbe < 0:
		writeError(w, http.StatusBadRequest, "nprobe must be non-negative, got %d", req.NProbe)
		return
	case req.TimeoutMS < 0:
		writeError(w, http.StatusBadRequest, "timeout_ms must be non-negative, got %d", req.TimeoutMS)
		return
	}
	// One snapshot for every check: two loads could straddle an epoch swap
	// and validate the request against two different indexes.
	idx := e.index()
	if req.NProbe > 0 && !idx.Routed() {
		// Silently scanning everything would misreport the recall/latency
		// trade the caller asked for, so refuse instead.
		writeError(w, http.StatusBadRequest,
			"index %q has no routing table (build it with WithRouting); nprobe is not applicable", e.name)
		return
	}
	dim := idx.Dim()
	queries := req.Queries
	if single {
		queries = [][]float32{req.Query}
	}
	for i, q := range queries {
		if len(q) != dim {
			writeError(w, http.StatusBadRequest,
				"query %d has dimensionality %d, index %q has %d", i, len(q), e.name, dim)
			return
		}
		// A uint8 index scans byte rows with integer kernels; a query value
		// that is not an exact byte is a caller error (like a dimension
		// mismatch), answered 400 before the search path would panic.
		if err := idx.CheckByteValues(q); err != nil {
			writeError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
	}
	if len(queries) == 0 {
		writeJSON(w, client.SearchResponse{Results: [][]client.Neighbor{}})
		return
	}

	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()

	var results [][]gkmeans.Neighbor
	if single {
		// The read path of the hardening pipeline: deadline → limiter
		// (above) → cache → coalescer → fan-out. The epoch is captured
		// before the search and re-checked before the insert, so a result
		// computed while a mutation published can never be cached — and a
		// hit can never cross an epoch (see queryCache).
		epoch := e.cur.Epoch()
		if res, hit := e.cache.get(req.Query, req.TopK, req.Ef, req.NProbe, epoch); hit {
			results = [][]gkmeans.Neighbor{res}
		} else {
			res, err := e.coal.Search(ctx, req.Query, req.TopK, req.Ef, req.NProbe)
			if err != nil {
				s.writeSearchError(w, err)
				return
			}
			if e.cur.Epoch() == epoch {
				e.cache.put(req.Query, req.TopK, req.Ef, req.NProbe, epoch, res)
			}
			results = [][]gkmeans.Neighbor{res}
		}
	} else {
		e.batchRequests.Add(1)
		e.batchQueries.Add(int64(len(queries)))
		// An explicit batch is one bounded SearchBatch call; it cannot be
		// preempted mid-flight, so the deadline is enforced by answering
		// 504 when it expires first (the computation's results are
		// discarded). The goroutine never outlives the batch.
		done := make(chan [][]gkmeans.Neighbor, 1)
		go func() {
			done <- e.index().SearchBatchNProbe(gkmeans.FromRows(queries), req.TopK, req.Ef, req.NProbe)
		}()
		select {
		case results = <-done:
		case <-ctx.Done():
			s.writeSearchError(w, ctx.Err())
			return
		}
	}

	out := client.SearchResponse{Results: make([][]client.Neighbor, len(results))}
	for i, res := range results {
		list := make([]client.Neighbor, len(res))
		for j, nb := range res {
			list[j] = client.Neighbor{ID: nb.ID, Dist: nb.Dist}
		}
		out.Results[i] = list
	}
	writeJSON(w, out)
}

// writeSearchError maps coalescer and deadline errors to status codes: a
// draining server answers 503 (retry another replica), an expired deadline
// 504 (the request's time budget ran out server-side), and a client-side
// cancellation 408 (the caller was already gone).
func (s *Server) writeSearchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining")
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Add(1)
		writeError(w, http.StatusGatewayTimeout, "search deadline exceeded")
	default:
		writeError(w, http.StatusRequestTimeout, "search aborted: %v", err)
	}
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// Clustering shares the limiter with search: both are the expensive,
	// sheddable read-side work the concurrency cap exists for.
	if !s.limiter.acquire() {
		s.limiter.reject(w)
		return
	}
	defer s.limiter.release()
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.ClusterRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed cluster request: %v", err)
		return
	}
	idx := e.index()
	if idx.Sharded() {
		// Index.Cluster would refuse too, but a sharded index can never
		// satisfy the request, so report it as a client error, not a 500.
		writeError(w, http.StatusBadRequest,
			"index %q is sharded (%d shards); clustering needs a monolithic index", e.name, idx.Shards())
		return
	}
	if req.K <= 0 || req.K > idx.N() {
		writeError(w, http.StatusBadRequest, "k must be in [1,%d], got %d", idx.N(), req.K)
		return
	}
	e.clusterRequests.Add(1)
	var opts []gkmeans.Option
	if req.MaxIter > 0 {
		opts = append(opts, gkmeans.WithMaxIter(req.MaxIter))
	}
	if req.Seed != 0 {
		opts = append(opts, gkmeans.WithSeed(req.Seed))
	}
	ctx, cancel := s.searchContext(r, 0)
	defer cancel()
	res, err := idx.Cluster(ctx, req.K, opts...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlineExceeded.Add(1)
			writeError(w, http.StatusGatewayTimeout, "cluster deadline exceeded")
			return
		}
		writeError(w, http.StatusInternalServerError, "clustering failed: %v", err)
		return
	}
	out := client.ClusterResponse{K: res.K, Iters: res.Iters, Distortion: res.Distortion(idx.Data())}
	if req.WithLabels {
		out.Labels = res.Labels
	}
	if req.WithCentroids {
		out.Centroids = make([][]float32, res.Centroids.N)
		for i := range out.Centroids {
			row := make([]float32, res.Centroids.Dim)
			copy(row, res.Centroids.Row(i))
			out.Centroids[i] = row
		}
	}
	writeJSON(w, out)
}
