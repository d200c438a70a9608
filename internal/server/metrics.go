package server

import (
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gkmeans/client"
)

// durationBuckets are the upper bounds (seconds) of the request-latency
// histogram exported at /metrics. They span sub-millisecond cache hits to
// multi-second cluster calls; Prometheus appends the implicit +Inf bucket.
var durationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// metrics tracks per-endpoint request counts by status code and latency
// histogram buckets, plus a server-wide in-flight gauge. Everything is
// instance-scoped (no process-global registry, so many servers can coexist
// in one process/test binary) and exported in Prometheus text format at
// /metrics (see Server.serveMetrics).
type metrics struct {
	inflight atomic.Int64

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

type endpointMetrics struct {
	mu      sync.Mutex
	codes   map[int]int64 // HTTP status → responses
	buckets []int64       // non-cumulative counts per durationBuckets bound
	over    int64         // observations above the last bound (the +Inf bucket)
	sumNS   int64         // total observed latency, for the histogram _sum
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

// endpoint returns (creating on first use) the named endpoint's stats.
func (m *metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[name]
	if !ok {
		em = &endpointMetrics{
			codes:   make(map[int]int64),
			buckets: make([]int64, len(durationBuckets)),
		}
		m.endpoints[name] = em
	}
	return em
}

// observe records one completed request and the status code it answered
// with.
func (em *endpointMetrics) observe(d time.Duration, code int) {
	secs := d.Seconds()
	em.mu.Lock()
	em.codes[code]++
	em.sumNS += int64(d)
	placed := false
	for i, ub := range durationBuckets {
		if secs <= ub {
			em.buckets[i]++
			placed = true
			break
		}
	}
	if !placed {
		em.over++
	}
	em.mu.Unlock()
}

// histSnapshot copies the histogram state: per-code counts, cumulative
// bucket counts (Prometheus buckets are cumulative on the wire), the +Inf
// total and the latency sum in seconds.
func (em *endpointMetrics) histSnapshot() (codes map[int]int64, cum []int64, total int64, sumSeconds float64) {
	em.mu.Lock()
	defer em.mu.Unlock()
	codes = make(map[int]int64, len(em.codes))
	for c, n := range em.codes {
		codes[c] = n
	}
	cum = make([]int64, len(em.buckets))
	running := int64(0)
	for i, n := range em.buckets {
		running += n
		cum[i] = running
	}
	return codes, cum, running + em.over, float64(em.sumNS) / 1e9
}

// statusRecorder captures the status code a handler wrote so instrument
// can attribute the request; an untouched recorder means an implicit 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the in-flight gauge and per-endpoint
// count/status/latency tracking under name.
func (m *metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := m.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			em.observe(time.Since(start), sr.code)
			m.inflight.Add(-1)
		}()
		h(sr, r)
	}
}

// promWriter accumulates Prometheus text-format exposition. Families are
// emitted in one block each (HELP, TYPE, then samples) as the format
// requires; float formatting uses the shortest round-trip representation.
type promWriter struct {
	buf []byte
}

func (p *promWriter) family(name, help, typ string) {
	p.buf = append(p.buf, "# HELP "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, help...)
	p.buf = append(p.buf, "\n# TYPE "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, typ...)
	p.buf = append(p.buf, '\n')
}

// sample writes one line: name{labels} value. labels alternate key, value
// and are emitted in the given order; values are escaped per the format
// (backslash, double quote, newline).
func (p *promWriter) sample(name string, labels []string, value float64) {
	p.buf = append(p.buf, name...)
	if len(labels) > 0 {
		p.buf = append(p.buf, '{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.buf = append(p.buf, ',')
			}
			p.buf = append(p.buf, labels[i]...)
			p.buf = append(p.buf, '=', '"')
			for _, r := range labels[i+1] {
				switch r {
				case '\\':
					p.buf = append(p.buf, '\\', '\\')
				case '"':
					p.buf = append(p.buf, '\\', '"')
				case '\n':
					p.buf = append(p.buf, '\\', 'n')
				default:
					p.buf = append(p.buf, string(r)...)
				}
			}
			p.buf = append(p.buf, '"')
		}
		p.buf = append(p.buf, '}')
	}
	p.buf = append(p.buf, ' ')
	if value == float64(int64(value)) {
		p.buf = strconv.AppendInt(p.buf, int64(value), 10)
	} else {
		p.buf = strconv.AppendFloat(p.buf, value, 'g', -1, 64)
	}
	p.buf = append(p.buf, '\n')
}

// serveMetrics renders the Prometheus text-format exposition at /metrics:
// the per-endpoint request counters and latency histograms, the in-flight
// and shed gauges, and the per-index serving, mutation and cache series —
// the latter from one entry.stats snapshot per index per scrape. Every
// exported series is documented in OPERATIONS.md.
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	s.met.mu.Lock()
	names := slices.Sorted(maps.Keys(s.met.endpoints))
	s.met.mu.Unlock()

	p := &promWriter{}

	p.family("gkserved_requests_total", "Requests served, by endpoint and HTTP status code.", "counter")
	for _, name := range names {
		codes, _, _, _ := s.met.endpoint(name).histSnapshot()
		for _, c := range slices.Sorted(maps.Keys(codes)) {
			p.sample("gkserved_requests_total",
				[]string{"endpoint", name, "code", strconv.Itoa(c)}, float64(codes[c]))
		}
	}

	p.family("gkserved_request_duration_seconds", "Request latency, by endpoint.", "histogram")
	for _, name := range names {
		_, cum, total, sum := s.met.endpoint(name).histSnapshot()
		for i, ub := range durationBuckets {
			p.sample("gkserved_request_duration_seconds_bucket",
				[]string{"endpoint", name, "le", strconv.FormatFloat(ub, 'g', -1, 64)}, float64(cum[i]))
		}
		p.sample("gkserved_request_duration_seconds_bucket",
			[]string{"endpoint", name, "le", "+Inf"}, float64(total))
		p.sample("gkserved_request_duration_seconds_sum", []string{"endpoint", name}, sum)
		p.sample("gkserved_request_duration_seconds_count", []string{"endpoint", name}, float64(total))
	}

	p.family("gkserved_inflight_requests", "Requests currently being served.", "gauge")
	p.sample("gkserved_inflight_requests", nil, float64(s.met.inflight.Load()))

	p.family("gkserved_shed_total", "Requests rejected with 429 by the concurrency limiter.", "counter")
	p.sample("gkserved_shed_total", nil, float64(s.limiter.shed.Load()))

	p.family("gkserved_deadline_exceeded_total", "Searches that returned 504 after their deadline expired.", "counter")
	p.sample("gkserved_deadline_exceeded_total", nil, float64(s.deadlineExceeded.Load()))

	entries := s.reg.list()
	snaps := make([]client.IndexStats, len(entries))
	for i, e := range entries {
		snaps[i] = e.stats()
	}
	for _, f := range indexFamilies {
		p.family(f.name, f.help, f.typ)
		for _, st := range snaps {
			labels := []string{"index", st.Name}
			if f.count == nil {
				p.sample(f.name, labels, f.value(st))
				continue
			}
			p.sample(f.name+"_sum", labels, f.value(st))
			p.sample(f.name+"_count", labels, f.count(st))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(p.buf)
}

// indexFamilies declares every per-index family of /metrics. Each renders
// the IndexStats snapshot /stats returns, one row per numeric field, so the
// two expositions cannot disagree: the row names the series, the snapshot
// decides its value. A summary's value is its _sum and count its _count;
// every other family has one sample per index.
var indexFamilies = []struct {
	name, typ, help string
	value, count    func(client.IndexStats) float64
}{
	{"gkserved_index_rows", "gauge", "Indexed rows, live and tombstoned.",
		func(s client.IndexStats) float64 { return float64(s.N) }, nil},
	{"gkserved_index_dim", "gauge", "Dimensionality of the indexed vectors.",
		func(s client.IndexStats) float64 { return float64(s.Dim) }, nil},
	{"gkserved_index_shards", "gauge", "Shards a full fan-out searches.",
		func(s client.IndexStats) float64 { return float64(s.Shards) }, nil},
	{"gkserved_index_epoch", "gauge", "Epoch of the served index snapshot (bumps on every published mutation).",
		func(s client.IndexStats) float64 { return float64(s.Epoch) }, nil},
	{"gkserved_index_live_rows", "gauge", "Searchable (non-tombstoned) rows.",
		func(s client.IndexStats) float64 { return float64(s.Live) }, nil},
	{"gkserved_index_deleted_rows", "gauge", "Tombstoned rows awaiting compaction.",
		func(s client.IndexStats) float64 { return float64(s.Deleted) }, nil},
	{"gkserved_index_pending_rows", "gauge", "Inserted rows buffered ahead of their shard build.",
		func(s client.IndexStats) float64 { return float64(s.Pending) }, nil},
	{"gkserved_queries_total", "counter", "Queries answered (single queries, cache hits included, and batch rows).",
		func(s client.IndexStats) float64 { return float64(s.Queries) }, nil},
	{"gkserved_coalesced_batches_total", "counter", "Search executions on the micro-batching path (SearchBatch calls and solo searches).",
		func(s client.IndexStats) float64 { return float64(s.Batches) }, nil},
	{"gkserved_coalescer_max_batch", "gauge", "Largest batch the coalescer has executed.",
		func(s client.IndexStats) float64 { return float64(s.MaxBatch) }, nil},
	{"gkserved_batch_requests_total", "counter", "Explicit batch searches (they bypass the coalescer).",
		func(s client.IndexStats) float64 { return float64(s.BatchRequests) }, nil},
	{"gkserved_cluster_requests_total", "counter", "Cluster requests admitted.",
		func(s client.IndexStats) float64 { return float64(s.ClusterRequests) }, nil},
	// A summary without quantiles: the mean wait is rate(_sum)/rate(_count).
	{"gkserved_coalescer_queue_wait_seconds", "summary", "Time single queries spent collecting company before their batch started.",
		func(s client.IndexStats) float64 { return time.Duration(s.QueueWaitNS).Seconds() },
		func(s client.IndexStats) float64 { return float64(s.Queued) }},
	{"gkserved_distance_comps_total", "counter", "Distance-kernel evaluations across all searches.",
		func(s client.IndexStats) float64 { return float64(s.DistanceComps) }, nil},
	{"gkserved_expanded_candidates_total", "counter", "Pool candidates expanded through their graph neighbours.",
		func(s client.IndexStats) float64 { return float64(s.ExpandedCandidates) }, nil},
	{"gkserved_shards_probed_total", "counter", "Shard searches executed (one per probed shard per query).",
		func(s client.IndexStats) float64 { return float64(s.ShardsProbed) }, nil},
	{"gkserved_routed_queries_total", "counter", "Queries whose nprobe skipped at least one shard.",
		func(s client.IndexStats) float64 { return float64(s.RoutedQueries) }, nil},
	{"gkserved_inserts_total", "counter", "Vectors accepted by /insert.",
		func(s client.IndexStats) float64 { return float64(s.Inserts) }, nil},
	{"gkserved_deletes_total", "counter", "Ids accepted by /delete.",
		func(s client.IndexStats) float64 { return float64(s.Deletes) }, nil},
	{"gkserved_flushes_total", "counter", "Memtable flushes (incremental shard builds).",
		func(s client.IndexStats) float64 { return float64(s.Flushes) }, nil},
	{"gkserved_compactions_total", "counter", "Compaction rounds applied.",
		func(s client.IndexStats) float64 { return float64(s.Compactions) }, nil},
	{"gkserved_cache_hits_total", "counter", "Query-cache hits.",
		func(s client.IndexStats) float64 { return float64(s.CacheHits) }, nil},
	{"gkserved_cache_misses_total", "counter", "Query-cache misses (including epoch invalidations).",
		func(s client.IndexStats) float64 { return float64(s.CacheMisses) }, nil},
	{"gkserved_cache_evictions_total", "counter", "Query-cache LRU evictions.",
		func(s client.IndexStats) float64 { return float64(s.CacheEvictions) }, nil},
	{"gkserved_cache_entries", "gauge", "Query-cache resident entries.",
		func(s client.IndexStats) float64 { return float64(s.CacheEntries) }, nil},
}
