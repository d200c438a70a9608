package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
)

// Tests for the serving-hardening pipeline: deadline → limiter → cache →
// coalescer → fan-out. The cache assertions pin ARCHITECTURE.md invariant 8
// (a hit is bit-identical to the cold search, and can never cross an epoch).

func searchBodyFull(t *testing.T, req client.SearchRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestQueryCacheEpochSemantics(t *testing.T) {
	c := newQueryCache(64)
	q := []float32{1, 2, 3}
	res := []gkmeans.Neighbor{{ID: 7, Dist: 0.5}}

	if _, hit := c.get(q, 10, 32, 0, 4); hit {
		t.Fatal("empty cache hit")
	}
	c.put(q, 10, 32, 0, 4, res)
	got, hit := c.get(q, 10, 32, 0, 4)
	if !hit || len(got) != 1 || got[0] != res[0] {
		t.Fatalf("same-epoch lookup: hit=%v got=%v", hit, got)
	}
	// Different search parameters are different keys.
	if _, hit := c.get(q, 11, 32, 0, 4); hit {
		t.Fatal("topK=11 hit the topK=10 entry")
	}
	// A different epoch must miss — and evict the stale entry, so even
	// asking for the original epoch again misses now.
	if _, hit := c.get(q, 10, 32, 0, 5); hit {
		t.Fatal("lookup at epoch 5 hit an entry computed at epoch 4")
	}
	if _, hit := c.get(q, 10, 32, 0, 4); hit {
		t.Fatal("stale entry survived its cross-epoch lookup")
	}
	hits, misses, _, entries := c.counters()
	if entries != 0 {
		t.Fatalf("cache holds %d entries, want 0", entries)
	}
	if hits != 1 || misses != 4 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/4", hits, misses)
	}

	// A nil cache (disabled) is safe to use and never hits.
	var disabled *queryCache
	disabled.put(q, 10, 32, 0, 4, res)
	if _, hit := disabled.get(q, 10, 32, 0, 4); hit {
		t.Fatal("nil cache hit")
	}
	if _, _, _, n := disabled.counters(); n != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestQueryCacheEviction(t *testing.T) {
	c := newQueryCache(cacheShardCount) // one entry per shard
	const n = 64
	for i := 0; i < n; i++ {
		c.put([]float32{float32(i)}, 10, 32, 0, 1, nil)
	}
	_, _, evictions, entries := c.counters()
	if entries > cacheShardCount {
		t.Fatalf("cache holds %d entries, cap is %d", entries, cacheShardCount)
	}
	if evictions == 0 {
		t.Fatalf("no evictions after %d inserts into a %d-entry cache", n, cacheShardCount)
	}
}

// cacheServer serves a fresh index (built with the given worker count) with
// the query cache enabled and micro-batching disabled.
func cacheServer(t *testing.T, workers, cacheSize int) (*Server, *gkmeans.Matrix) {
	t.Helper()
	all := dataset.SIFTLike(540, 7)
	data, queries := dataset.Split(all, 40)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(10), gkmeans.WithXi(25), gkmeans.WithTau(4),
		gkmeans.WithSeed(3), gkmeans.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: -1, CacheSize: cacheSize})
	if err := s.RegisterIndex("sift", idx); err != nil {
		t.Fatal(err)
	}
	return s, queries
}

// The cache must be invisible in the results: the same sequential request
// trace against cache-enabled servers whose indexes were built with
// different worker counts must produce byte-identical response bodies (hits
// included — bit-identity with the cold search) and identical hit/miss/
// eviction counters (eviction order is deterministic for a fixed trace).
func TestCacheDeterminismAcrossWorkerCounts(t *testing.T) {
	trace := func(workers int) ([]string, client.IndexStats) {
		s, queries := cacheServer(t, workers, cacheShardCount) // 1 entry/shard: forces evictions
		var bodies []string
		for round := 0; round < 3; round++ {
			for qi := 0; qi < queries.N; qi++ {
				w := call(t, s, "POST", "/v1/indexes/sift/search",
					searchBody(queries.Row(qi), 10, 64), nil)
				if w.Code != http.StatusOK {
					t.Fatalf("workers=%d round=%d q=%d: status %d: %s",
						workers, round, qi, w.Code, w.Body.String())
				}
				bodies = append(bodies, w.Body.String())
			}
		}
		var st client.IndexStats
		call(t, s, "GET", "/v1/indexes/sift/stats", "", &st)
		return bodies, st
	}

	b1, st1 := trace(1)
	b4, st4 := trace(4)
	for i := range b1 {
		if b1[i] != b4[i] {
			t.Fatalf("request %d differs between worker counts:\n  w1: %s\n  w4: %s", i, b1[i], b4[i])
		}
	}
	if st1.CacheHits != st4.CacheHits || st1.CacheMisses != st4.CacheMisses ||
		st1.CacheEvictions != st4.CacheEvictions {
		t.Fatalf("cache counters diverged: w1 hits/misses/evictions %d/%d/%d, w4 %d/%d/%d",
			st1.CacheHits, st1.CacheMisses, st1.CacheEvictions,
			st4.CacheHits, st4.CacheMisses, st4.CacheEvictions)
	}
	if st1.CacheHits == 0 {
		t.Fatal("repeated trace produced no cache hits")
	}
	if st1.CacheEvictions == 0 {
		t.Fatal("over-capacity trace produced no evictions")
	}

	// And a cached answer is byte-identical to the cold answer for the same
	// query: round 2 repeats round 0's requests against a warm cache.
	n := len(b1) / 3
	for i := 0; i < n; i++ {
		if b1[i] != b1[i+n] {
			t.Fatalf("warm answer for query %d differs from cold answer", i)
		}
	}
}

// Hammering searches while rows are deleted must never surface a row whose
// delete was acknowledged before the search began — the epoch pinning makes
// a stale cache hit impossible. Run with -race, this is also the data-race
// check over the cache/mutation interleaving.
func TestCacheEpochInvalidationRace(t *testing.T) {
	all := dataset.SIFTLike(240, 6)
	data, queries := dataset.Split(all, 20)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithXi(20), gkmeans.WithTau(3), gkmeans.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: -1, CacheSize: 1024, MemtableThreshold: 4})
	if err := s.RegisterIndex("mut", idx); err != nil {
		t.Fatal(err)
	}

	// The mutator deletes doomed ids one at a time; acked publishes how many
	// of those deletes have been acknowledged. A searcher that starts after
	// acked=k must never see doomed[:k].
	doomed := []int32{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45}
	var acked atomic.Int64
	ef := idx.N() + 8 // exhaustive search: assertions must not hinge on recall

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := acked.Load()
				q := queries.Row((g + i) % queries.N)
				req := httpRequest(s, "POST", "/v1/indexes/mut/search", searchBody(q, 20, ef))
				if req.code != http.StatusOK {
					errs <- fmt.Errorf("search: status %d: %s", req.code, req.body)
					return
				}
				var out client.SearchResponse
				if err := json.Unmarshal([]byte(req.body), &out); err != nil {
					errs <- err
					return
				}
				for _, nb := range out.Results[0] {
					for _, d := range doomed[:k] {
						if nb.ID == d {
							errs <- fmt.Errorf("deleted id %d resurfaced after its delete was acked", d)
							return
						}
					}
				}
			}
		}(g)
	}
	// Mutate on the test goroutine: deletes interleave with inserts so the
	// epoch also moves through flush-triggered rebuilds.
	for i, id := range doomed {
		if w := call(t, s, "POST", "/v1/indexes/mut/delete",
			fmt.Sprintf(`{"ids":[%d]}`, id), nil); w.Code != http.StatusOK {
			t.Fatalf("delete %d: status %d: %s", id, w.Code, w.Body.String())
		}
		acked.Store(int64(i + 1))
		if i%3 == 2 {
			row := make([]float32, idx.Dim())
			for j := range row {
				row[j] = float32(1000 + i)
			}
			body, _ := json.Marshal(client.InsertRequest{Vectors: [][]float32{row}})
			if w := call(t, s, "POST", "/v1/indexes/mut/insert", string(body), nil); w.Code != http.StatusOK {
				t.Fatalf("insert: status %d: %s", w.Code, w.Body.String())
			}
		}
		time.Sleep(2 * time.Millisecond) // let searchers interleave
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// httpResult is a goroutine-safe capture of one handler round trip (the
// call() helper t.Fatals, which is not legal off the test goroutine).
type httpResult struct {
	code int
	body string
}

func newRecordedRequest(method, path, body string) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(method, path, strings.NewReader(body)), httptest.NewRecorder()
}

func httpRequest(s *Server, method, path, body string) httpResult {
	req, w := newRecordedRequest(method, path, body)
	s.Handler().ServeHTTP(w, req)
	return httpResult{code: w.Code, body: w.Body.String()}
}

// holdSearches swaps name's coalescer for one whose index provider is a
// gate, so a test can keep a search in flight and collect requests behind it.
func holdSearches(t *testing.T, s *Server, name string, maxBatch int) (*gate, *coalescer) {
	t.Helper()
	e, ok := s.reg.get(name)
	if !ok {
		t.Fatalf("index %q not registered", name)
	}
	g := newGate(e.index())
	e.coal = newCoalescer(g.get, time.Hour, maxBatch)
	return g, e.coal
}

// A request whose deadline expires while it collects behind a running
// search is answered 504 — and must not poison its batch: members with time
// left still get answers identical to a direct search.
func TestSearchDeadline504WithoutPoisoningBatch(t *testing.T) {
	const survivors = 4
	idx, queries := sharedIndex(t)
	s := New(Config{MaxBatch: 8})
	if err := s.RegisterIndex("sift", idx); err != nil {
		t.Fatal(err)
	}
	g, coal := holdSearches(t, s, "sift", survivors+1) // the last survivor fills the group
	held := make(chan httpResult, 1)
	go func() {
		held <- httpRequest(s, "POST", "/v1/indexes/sift/search", searchBody(queries.Row(survivors+1), 5, 64))
	}()
	g.awaitHeld(t)

	// 1ms expires in the group, long before the batch runs; the request is
	// answered then, while its entry stays in the collecting group.
	results := make([]httpResult, survivors+1)
	results[survivors] = httpRequest(s, "POST", "/v1/indexes/sift/search",
		searchBodyFull(t, client.SearchRequest{Query: queries.Row(survivors), TopK: 5, Ef: 64, TimeoutMS: 1}))
	accepted, _, _ := coal.Stats()

	var wg sync.WaitGroup
	for i := 0; i < survivors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = httpRequest(s, "POST", "/v1/indexes/sift/search",
				searchBody(queries.Row(i), 5, 64))
		}(i)
	}
	awaitQueries(t, coal, accepted+survivors) // the batch starts only once everyone has joined
	g.open()
	wg.Wait()
	if res := <-held; res.code != http.StatusOK {
		t.Fatalf("held search after release: status %d: %s", res.code, res.body)
	}

	if results[survivors].code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504 (%s)",
			results[survivors].code, results[survivors].body)
	}
	for i := 0; i < survivors; i++ {
		if results[i].code != http.StatusOK {
			t.Fatalf("batch-mate %d: status %d: %s", i, results[i].code, results[i].body)
		}
		var out client.SearchResponse
		if err := json.Unmarshal([]byte(results[i].body), &out); err != nil {
			t.Fatal(err)
		}
		want := idx.Search(queries.Row(i), 5, 64)
		got := out.Results[0]
		if len(got) != len(want) {
			t.Fatalf("batch-mate %d: %d results, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("batch-mate %d result %d: got %+v want %+v", i, j, got[j], want[j])
			}
		}
	}
	if s.deadlineExceeded.Load() != 1 {
		t.Fatalf("deadlineExceeded=%d, want 1", s.deadlineExceeded.Load())
	}
}

// An explicit batch request past its deadline is answered 504 too.
func TestBatchSearchDeadline504(t *testing.T) {
	s := newTestServer(t)
	idx, queries := sharedIndex(t)
	// A batch heavy enough that a 1ms budget cannot cover it: every held-out
	// query repeated, searched exhaustively.
	var batch [][]float32
	for len(batch) < 1024 {
		batch = append(batch, queries.Row(len(batch)%queries.N))
	}
	body := searchBodyFull(t, client.SearchRequest{
		Queries: batch, TopK: 10, Ef: idx.N(), TimeoutMS: 1,
	})
	// The deadline may still lose the select on a fast machine; retry a few
	// times before declaring the 504 path unreachable.
	for i := 0; i < 50; i++ {
		if w := call(t, s, "POST", "/v1/indexes/sift/search", body, nil); w.Code == http.StatusGatewayTimeout {
			return
		}
	}
	t.Fatal("explicit batch with a 1ms budget never answered 504")
}

func TestLimiterSheds429WithRetryAfter(t *testing.T) {
	idx, queries := sharedIndex(t)
	s := New(Config{Window: -1, MaxInFlight: 1, RetryAfter: 3 * time.Second})
	if err := s.RegisterIndex("sift", idx); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot directly, then observe the shed.
	if !s.limiter.acquire() {
		t.Fatal("first acquire failed")
	}
	req, w := newRecordedRequest("POST", "/v1/indexes/sift/search", searchBody(queries.Row(0), 5, 64))
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if shed := s.limiter.shed.Load(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}
	s.limiter.release()

	// With the slot free the same request succeeds.
	if w := call(t, s, "POST", "/v1/indexes/sift/search", searchBody(queries.Row(0), 5, 64), nil); w.Code != http.StatusOK {
		t.Fatalf("post-release search: status %d: %s", w.Code, w.Body.String())
	}
}

// /metrics must stay parseable Prometheus text format, with coherent
// histogram series and the hardening counters present.
func TestMetricsEndpointParses(t *testing.T) {
	s, queries := cacheServer(t, 1, 256)
	for i := 0; i < 3; i++ {
		call(t, s, "POST", "/v1/indexes/sift/search", searchBody(queries.Row(0), 5, 64), nil)
	}
	call(t, s, "POST", "/v1/indexes/sift/search", `not json`, nil)

	w := call(t, s, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	families, err := client.ParseMetrics(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	reqs, ok := client.Find(families, "gkserved_requests_total")
	if !ok {
		t.Fatal("gkserved_requests_total missing")
	}
	var searchOK, searchBad float64
	for _, sm := range reqs.Samples {
		if sm.Labels["endpoint"] == "search" {
			switch sm.Labels["code"] {
			case "200":
				searchOK = sm.Value
			case "400":
				searchBad = sm.Value
			}
		}
	}
	if searchOK != 3 || searchBad != 1 {
		t.Fatalf("search requests 200=%v 400=%v, want 3/1", searchOK, searchBad)
	}

	hist, ok := client.Find(families, "gkserved_request_duration_seconds")
	if !ok || hist.Type != "histogram" {
		t.Fatalf("duration histogram missing or mistyped: %+v", hist.Type)
	}
	// Per endpoint: cumulative buckets are non-decreasing, end at +Inf, and
	// the +Inf bucket equals _count.
	byEndpoint := map[string][]client.Sample{}
	counts := map[string]float64{}
	for _, sm := range hist.Samples {
		ep := sm.Labels["endpoint"]
		switch sm.Name {
		case "gkserved_request_duration_seconds_bucket":
			byEndpoint[ep] = append(byEndpoint[ep], sm)
		case "gkserved_request_duration_seconds_count":
			counts[ep] = sm.Value
		}
	}
	for ep, buckets := range byEndpoint {
		prev, inf := -1.0, -1.0
		for _, b := range buckets {
			if b.Value < prev {
				t.Fatalf("endpoint %s: bucket series decreases", ep)
			}
			prev = b.Value
			if b.Labels["le"] == "+Inf" {
				inf = b.Value
			}
		}
		if inf < 0 || inf != counts[ep] {
			t.Fatalf("endpoint %s: +Inf bucket %v != count %v", ep, inf, counts[ep])
		}
	}

	for _, name := range []string{
		"gkserved_inflight_requests", "gkserved_shed_total", "gkserved_deadline_exceeded_total",
		"gkserved_index_epoch", "gkserved_cache_hits_total", "gkserved_cache_misses_total",
		"gkserved_cache_entries",
	} {
		if _, ok := client.Find(families, name); !ok {
			t.Fatalf("family %s missing from /metrics", name)
		}
	}
	hits, _ := client.Find(families, "gkserved_cache_hits_total")
	if len(hits.Samples) != 1 || hits.Samples[0].Value != 2 {
		t.Fatalf("cache hits exported %+v, want one sample of 2", hits.Samples)
	}
	// The queue-wait summary is a _sum/_count pair per index (both zero here:
	// nothing ever queued on this server).
	wait, ok := client.Find(families, "gkserved_coalescer_queue_wait_seconds")
	if !ok || wait.Type != "summary" || len(wait.Samples) != 2 ||
		wait.Samples[0].Name != "gkserved_coalescer_queue_wait_seconds_sum" ||
		wait.Samples[1].Name != "gkserved_coalescer_queue_wait_seconds_count" {
		t.Fatalf("queue-wait summary missing or malformed: %+v", wait)
	}
}
