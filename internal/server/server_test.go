package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
)

// newTestServer serves the shared test index as "sift".
func newTestServer(t *testing.T) *Server {
	t.Helper()
	idx, _ := sharedIndex(t)
	s := New(Config{Window: time.Millisecond, MaxBatch: 8})
	if err := s.RegisterIndex("sift", idx); err != nil {
		t.Fatal(err)
	}
	return s
}

// call sends one request through the handler and decodes the JSON reply.
func call(t testing.TB, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

// errorOf extracts the error envelope of a non-2xx reply.
func errorOf(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("status %d reply %q is not the error envelope", w.Code, w.Body.String())
	}
	return e.Error
}

func searchBody(q []float32, topK, ef int) string {
	b, _ := json.Marshal(client.SearchRequest{Query: q, TopK: topK, Ef: ef})
	return string(b)
}

func TestServerErrorPaths(t *testing.T) {
	s := newTestServer(t)
	idx, queries := sharedIndex(t)
	okQuery := queries.Row(0)

	cases := []struct {
		name          string
		method, path  string
		body          string
		wantCode      int
		wantErrSubstr string
	}{
		{"search unknown index", "POST", "/v1/indexes/nosuch/search",
			searchBody(okQuery, 5, 32), http.StatusNotFound, "unknown index"},
		{"stats unknown index", "GET", "/v1/indexes/nosuch/stats",
			"", http.StatusNotFound, "unknown index"},
		{"cluster unknown index", "POST", "/v1/indexes/nosuch/cluster",
			`{"k":4}`, http.StatusNotFound, "unknown index"},
		{"malformed search JSON", "POST", "/v1/indexes/sift/search",
			`{"query": [1,2`, http.StatusBadRequest, "malformed"},
		{"unknown search field", "POST", "/v1/indexes/sift/search",
			`{"quary": [1], "top_k": 5}`, http.StatusBadRequest, "malformed"},
		{"trailing garbage", "POST", "/v1/indexes/sift/search",
			`{"query":[1],"top_k":5}{}`, http.StatusBadRequest, "malformed"},
		{"neither query nor queries", "POST", "/v1/indexes/sift/search",
			`{"top_k": 5}`, http.StatusBadRequest, "exactly one"},
		{"both query and queries", "POST", "/v1/indexes/sift/search",
			`{"query":[1],"queries":[[1]],"top_k":5}`, http.StatusBadRequest, "exactly one"},
		{"non-positive top_k", "POST", "/v1/indexes/sift/search",
			searchBody(okQuery, 0, 32), http.StatusBadRequest, "top_k"},
		{"wrong dimensionality", "POST", "/v1/indexes/sift/search",
			searchBody([]float32{1, 2, 3}, 5, 32), http.StatusBadRequest, "dimensionality"},
		{"wrong dimensionality in batch", "POST", "/v1/indexes/sift/search",
			`{"queries":[[1,2,3]],"top_k":5}`, http.StatusBadRequest, "dimensionality"},
		{"malformed cluster JSON", "POST", "/v1/indexes/sift/cluster",
			`k=4`, http.StatusBadRequest, "malformed"},
		{"non-positive k", "POST", "/v1/indexes/sift/cluster",
			`{"k":0}`, http.StatusBadRequest, "k must be"},
		{"k beyond n", "POST", "/v1/indexes/sift/cluster",
			fmt.Sprintf(`{"k":%d}`, idx.N()+1), http.StatusBadRequest, "k must be"},
		{"malformed register JSON", "POST", "/v1/indexes",
			`{`, http.StatusBadRequest, "malformed"},
		{"register missing fields", "POST", "/v1/indexes",
			`{"name":"x"}`, http.StatusBadRequest, "name and path"},
		{"register unreadable path", "POST", "/v1/indexes",
			`{"name":"x","path":"/nonexistent/a.gkx"}`, http.StatusBadRequest, "loading index"},
		{"register duplicate name", "POST", "/v1/indexes",
			`{"name":"sift","path":"/tmp/x.gkx"}`, http.StatusConflict, "already registered"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := call(t, s, c.method, c.path, c.body, nil)
			if w.Code != c.wantCode {
				t.Fatalf("status %d (%s), want %d", w.Code, w.Body.String(), c.wantCode)
			}
			if msg := errorOf(t, w); !strings.Contains(msg, c.wantErrSubstr) {
				t.Fatalf("error %q does not mention %q", msg, c.wantErrSubstr)
			}
		})
	}
}

func TestServerSearchSingleAndBatch(t *testing.T) {
	s := newTestServer(t)
	idx, queries := sharedIndex(t)

	q := queries.Row(3)
	var single client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/sift/search", searchBody(q, 10, 64), &single); w.Code != 200 {
		t.Fatalf("single search: %d %s", w.Code, w.Body.String())
	}
	if len(single.Results) != 1 {
		t.Fatalf("single search returned %d lists", len(single.Results))
	}
	want := idx.Search(q, 10, 64)
	if len(single.Results[0]) != len(want) {
		t.Fatalf("got %d neighbours, want %d", len(single.Results[0]), len(want))
	}
	for i, nb := range single.Results[0] {
		if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
			t.Fatalf("result %d = %+v, want %+v", i, nb, want[i])
		}
	}

	rows := make([][]float32, 5)
	for i := range rows {
		rows[i] = queries.Row(i)
	}
	body, _ := json.Marshal(client.SearchRequest{Queries: rows, TopK: 5, Ef: 40})
	var batch client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/sift/search", string(body), &batch); w.Code != 200 {
		t.Fatalf("batch search: %d %s", w.Code, w.Body.String())
	}
	if len(batch.Results) != 5 {
		t.Fatalf("batch returned %d lists, want 5", len(batch.Results))
	}
	for qi, res := range batch.Results {
		want := idx.Search(rows[qi], 5, 40)
		for i, nb := range res {
			if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
				t.Fatalf("batch query %d result %d = %+v, want %+v", qi, i, nb, want[i])
			}
		}
	}

	// An empty batch is a 200 with zero lists, not an error.
	var empty client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/sift/search", `{"queries":[],"top_k":5}`, &empty); w.Code != 200 {
		t.Fatalf("empty batch: %d %s", w.Code, w.Body.String())
	}
	if len(empty.Results) != 0 {
		t.Fatalf("empty batch returned %d lists", len(empty.Results))
	}
}

func TestServerListAndStats(t *testing.T) {
	s := newTestServer(t)
	idx, queries := sharedIndex(t)

	var list client.ListResponse
	call(t, s, "GET", "/v1/indexes", "", &list)
	if len(list.Indexes) != 1 || list.Indexes[0].Name != "sift" ||
		list.Indexes[0].N != idx.N() || list.Indexes[0].Dim != idx.Dim() {
		t.Fatalf("list = %+v", list)
	}

	call(t, s, "POST", "/v1/indexes/sift/search", searchBody(queries.Row(0), 5, 32), nil)
	var stats client.IndexStats
	if w := call(t, s, "GET", "/v1/indexes/sift/stats", "", &stats); w.Code != 200 {
		t.Fatalf("stats: %d %s", w.Code, w.Body.String())
	}
	if stats.Name != "sift" || stats.Queries < 1 || stats.Batches < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.CoalesceWindowNS != int64(time.Millisecond) {
		t.Fatalf("stats window %d, want %d", stats.CoalesceWindowNS, time.Millisecond)
	}
	// The index's hot-path totals flow through: at least one search ran, so
	// work counters are live and expansions never exceed distance evals.
	if stats.DistanceComps == 0 || stats.ExpandedCandidates == 0 {
		t.Fatalf("hot-path counters missing from stats: %+v", stats)
	}
	if stats.ExpandedCandidates > stats.DistanceComps {
		t.Fatalf("expanded %d > distance comps %d", stats.ExpandedCandidates, stats.DistanceComps)
	}
}

func TestServerClusterEndpoint(t *testing.T) {
	s := newTestServer(t)
	idx, _ := sharedIndex(t)

	var res client.ClusterResponse
	body := `{"k":8,"seed":5,"with_labels":true,"with_centroids":true}`
	if w := call(t, s, "POST", "/v1/indexes/sift/cluster", body, &res); w.Code != 200 {
		t.Fatalf("cluster: %d %s", w.Code, w.Body.String())
	}
	if res.K != 8 || res.Iters <= 0 || res.Distortion <= 0 {
		t.Fatalf("cluster response %+v", res)
	}
	if len(res.Labels) != idx.N() {
		t.Fatalf("%d labels for %d samples", len(res.Labels), idx.N())
	}
	if len(res.Centroids) != 8 || len(res.Centroids[0]) != idx.Dim() {
		t.Fatalf("centroid shape %d×%d", len(res.Centroids), len(res.Centroids[0]))
	}

	// Labels and centroids stay off the wire unless asked for.
	var lean client.ClusterResponse
	call(t, s, "POST", "/v1/indexes/sift/cluster", `{"k":8,"seed":5}`, &lean)
	if lean.Labels != nil || lean.Centroids != nil {
		t.Fatal("labels/centroids returned without opt-in")
	}
}

func TestServerHotRegistration(t *testing.T) {
	idx, queries := sharedIndex(t)
	path := filepath.Join(t.TempDir(), "hot.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	var info client.IndexInfo
	body, _ := json.Marshal(client.RegisterRequest{Name: "hot", Path: path})
	if w := call(t, s, "POST", "/v1/indexes", string(body), &info); w.Code != 200 {
		t.Fatalf("register: %d %s", w.Code, w.Body.String())
	}
	if info.Name != "hot" || info.N != idx.N() || info.Dim != idx.Dim() {
		t.Fatalf("register info %+v", info)
	}

	// The freshly loaded index serves identically to the in-process one.
	q := queries.Row(1)
	var res client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/hot/search", searchBody(q, 5, 32), &res); w.Code != 200 {
		t.Fatalf("search on hot index: %d %s", w.Code, w.Body.String())
	}
	want := idx.Search(q, 5, 32)
	for i, nb := range res.Results[0] {
		if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
			t.Fatalf("hot result %d = %+v, want %+v", i, nb, want[i])
		}
	}

	// Invalid names never enter the registry.
	if w := call(t, s, "POST", "/v1/indexes", `{"name":"../evil","path":"x.gkx"}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid name accepted: %d", w.Code)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	s := newTestServer(t)
	_, queries := sharedIndex(t)

	if w := call(t, s, "GET", "/healthz", "", nil); w.Code != 200 {
		t.Fatalf("healthz before shutdown: %d", w.Code)
	}
	s.BeginShutdown()
	s.BeginShutdown() // idempotent

	if w := call(t, s, "GET", "/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", w.Code)
	}
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/indexes/sift/search", searchBody(queries.Row(0), 5, 32)},
		{"POST", "/v1/indexes/sift/cluster", `{"k":4}`},
		{"POST", "/v1/indexes", `{"name":"x","path":"x.gkx"}`},
	} {
		if w := call(t, s, c.method, c.path, c.body, nil); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s during drain: %d, want 503", c.method, c.path, w.Code)
		}
	}

	// Read-only endpoints keep answering so operators can inspect a
	// draining server.
	if w := call(t, s, "GET", "/v1/indexes", "", nil); w.Code != 200 {
		t.Fatalf("list during drain: %d", w.Code)
	}
	if w := call(t, s, "GET", "/metrics", "", nil); w.Code != 200 {
		t.Fatalf("metrics during drain: %d", w.Code)
	}
}

func TestServerConcurrentSearchNoDrops(t *testing.T) {
	s := newTestServer(t)
	idx, queries := sharedIndex(t)

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries.Row((g*4 + i) % queries.N)
				w := call(t, s, "POST", "/v1/indexes/sift/search", searchBody(q, 10, 64), nil)
				if w.Code != 200 {
					errs <- fmt.Errorf("g%d i%d: status %d", g, i, w.Code)
					return
				}
				var res client.SearchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
					errs <- err
					return
				}
				want := idx.Search(q, 10, 64)
				for j, nb := range res.Results[0] {
					if nb.ID != want[j].ID || nb.Dist != want[j].Dist {
						errs <- fmt.Errorf("g%d i%d: result %d differs from in-process search", g, i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var stats client.IndexStats
	call(t, s, "GET", "/v1/indexes/sift/stats", "", &stats)
	if stats.Queries != goroutines*4 {
		t.Fatalf("served %d queries, want %d (dropped requests)", stats.Queries, goroutines*4)
	}
	if stats.Batches >= stats.Queries {
		t.Fatalf("%d batches for %d queries: coalescer never batched", stats.Batches, stats.Queries)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	_, queries := sharedIndex(t)
	for i := 0; i < 3; i++ {
		call(t, s, "POST", "/v1/indexes/sift/search", searchBody(queries.Row(i), 5, 32), nil)
	}
	call(t, s, "GET", "/healthz", "", nil)

	w := call(t, s, "GET", "/metrics", "", nil)
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	families, err := client.ParseMetrics(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	// sample returns the value of the named series whose labels include
	// want, or -1.
	sample := func(family, series string, want map[string]string) float64 {
		f, _ := client.Find(families, family)
	next:
		for _, sm := range f.Samples {
			if sm.Name != series {
				continue
			}
			for k, v := range want {
				if sm.Labels[k] != v {
					continue next
				}
			}
			return sm.Value
		}
		return -1
	}
	if n := sample("gkserved_requests_total", "gkserved_requests_total", map[string]string{"endpoint": "search", "code": "200"}); n != 3 {
		t.Fatalf("search requests with status 200: %v, want 3", n)
	}
	const hist = "gkserved_request_duration_seconds"
	if n := sample(hist, hist+"_count", map[string]string{"endpoint": "search"}); n != 3 {
		t.Fatalf("search latency observations: %v, want 3", n)
	}
	if sum := sample(hist, hist+"_sum", map[string]string{"endpoint": "search"}); sum <= 0 {
		t.Fatalf("implausible search latency sum %v", sum)
	}
	if n := sample(hist, hist+"_count", map[string]string{"endpoint": "healthz"}); n != 1 {
		t.Fatalf("healthz observations: %v, want 1", n)
	}
	// The scrape itself is in flight while it runs.
	if n := sample("gkserved_inflight_requests", "gkserved_inflight_requests", nil); n < 1 {
		t.Fatalf("inflight gauge %v, want >= 1", n)
	}
}

func TestServerSearchContextCancelled(t *testing.T) {
	idx, queries := sharedIndex(t)
	s := New(Config{})
	if err := s.RegisterIndex("sift", idx); err != nil {
		t.Fatal(err)
	}
	// A search held in flight, a giant window and no size trigger: the only
	// way out for the request collecting behind it is the request context,
	// which must map to 408.
	g, coal := holdSearches(t, s, "sift", 1<<20)
	held := make(chan httpResult, 1)
	go func() {
		held <- httpRequest(s, "POST", "/v1/indexes/sift/search", searchBody(queries.Row(1), 5, 32))
	}()
	g.awaitHeld(t)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/indexes/sift/search",
		bytes.NewReader([]byte(searchBody(queries.Row(0), 5, 32)))).WithContext(ctx)
	w := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, req)
		close(served)
	}()
	awaitQueries(t, coal, 2)
	cancel()
	<-served
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("cancelled search: %d %s, want 408", w.Code, w.Body.String())
	}
	g.open()
	if res := <-held; res.code != http.StatusOK {
		t.Fatalf("held search after release: %d %s", res.code, res.body)
	}
	s.BeginShutdown() // ends the hour-long window for a clean test exit
}

// A sharded index must serve end-to-end exactly like a monolithic one —
// registered from a multi-segment .gkx file, searched over HTTP with
// results identical to in-process fan-out search, reported with its shard
// count — while clustering is refused as a client error.
func TestServerServesShardedIndex(t *testing.T) {
	all := dataset.SIFTLike(400, 19)
	data, queries := dataset.Split(all, 20)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithShards(3), gkmeans.WithKappa(8), gkmeans.WithTau(3), gkmeans.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Window: time.Millisecond, MaxBatch: 8})
	if err := s.RegisterFile("sharded", path); err != nil {
		t.Fatal(err)
	}

	var list client.ListResponse
	if w := call(t, s, "GET", "/v1/indexes", "", &list); w.Code != http.StatusOK {
		t.Fatalf("list: %d %s", w.Code, w.Body.String())
	}
	if len(list.Indexes) != 1 || list.Indexes[0].Shards != 3 || list.Indexes[0].HasClusters {
		t.Fatalf("list = %+v, want one index with 3 shards", list.Indexes)
	}

	// Single-query (through the coalescer) and batch search must both match
	// the in-process fan-out results bit for bit.
	for qi := 0; qi < 5; qi++ {
		want := idx.Search(queries.Row(qi), 5, 64)
		var out client.SearchResponse
		if w := call(t, s, "POST", "/v1/indexes/sharded/search",
			searchBody(queries.Row(qi), 5, 64), &out); w.Code != http.StatusOK {
			t.Fatalf("search %d: %d %s", qi, w.Code, w.Body.String())
		}
		if len(out.Results) != 1 || len(out.Results[0]) != len(want) {
			t.Fatalf("search %d returned %d lists", qi, len(out.Results))
		}
		for i, nb := range out.Results[0] {
			if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
				t.Fatalf("search %d result %d = %+v, want %+v", qi, i, nb, want[i])
			}
		}
	}
	batchReq, _ := json.Marshal(client.SearchRequest{
		Queries: [][]float32{queries.Row(0), queries.Row(1)}, TopK: 3, Ef: 32})
	var batchOut client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/sharded/search", string(batchReq), &batchOut); w.Code != http.StatusOK {
		t.Fatalf("batch search: %d %s", w.Code, w.Body.String())
	}
	if len(batchOut.Results) != 2 {
		t.Fatalf("batch search returned %d lists, want 2", len(batchOut.Results))
	}

	// Clustering a sharded index is a client error, not a server failure.
	w := call(t, s, "POST", "/v1/indexes/sharded/cluster", `{"k":3}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("cluster on sharded index: %d, want 400", w.Code)
	}
	if msg := errorOf(t, w); !strings.Contains(msg, "sharded") {
		t.Fatalf("cluster error %q does not mention sharding", msg)
	}

	// Stats aggregate the per-shard hot-path counters.
	var stats client.IndexStats
	if w := call(t, s, "GET", "/v1/indexes/sharded/stats", "", &stats); w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body.String())
	}
	if stats.Shards != 3 || stats.DistanceComps == 0 {
		t.Fatalf("stats = %+v, want 3 shards and non-zero distance comps", stats)
	}
}

// TestServerServesRoutedIndex covers the nprobe wire surface: a routed
// index accepts per-query probe caps (full fan-out staying bit-identical),
// surfaces the routing counters in /stats, and the validation paths reject
// bad nprobe values with 400s.
func TestServerServesRoutedIndex(t *testing.T) {
	all := dataset.SIFTLike(400, 23)
	data, queries := dataset.Split(all, 20)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithShards(4), gkmeans.WithRouting(4),
		gkmeans.WithKappa(8), gkmeans.WithTau(3), gkmeans.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: time.Millisecond, MaxBatch: 8})
	if err := s.RegisterIndex("routed", idx); err != nil {
		t.Fatal(err)
	}

	var list client.ListResponse
	if w := call(t, s, "GET", "/v1/indexes", "", &list); w.Code != http.StatusOK {
		t.Fatalf("list: %d %s", w.Code, w.Body.String())
	}
	if len(list.Indexes) != 1 || !list.Indexes[0].Routed || list.Indexes[0].Shards != 4 {
		t.Fatalf("list = %+v, want one routed index with 4 shards", list.Indexes)
	}

	// nprobe == shard count must match the library's full fan-out exactly.
	req, _ := json.Marshal(client.SearchRequest{Query: queries.Row(0), TopK: 5, Ef: 64, NProbe: 4})
	var out client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/routed/search", string(req), &out); w.Code != http.StatusOK {
		t.Fatalf("search nprobe=4: %d %s", w.Code, w.Body.String())
	}
	want := idx.Search(queries.Row(0), 5, 64)
	if len(out.Results) != 1 || len(out.Results[0]) != len(want) {
		t.Fatalf("search returned %d lists", len(out.Results))
	}
	for i, nb := range out.Results[0] {
		if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
			t.Fatalf("nprobe=4 result %d = %+v, want full fan-out %+v", i, nb, want[i])
		}
	}

	// A routed batch search with nprobe < shards answers every query and
	// bumps the routing counters.
	batchReq, _ := json.Marshal(client.SearchRequest{
		Queries: [][]float32{queries.Row(1), queries.Row(2)}, TopK: 3, Ef: 32, NProbe: 1})
	var batchOut client.SearchResponse
	if w := call(t, s, "POST", "/v1/indexes/routed/search", string(batchReq), &batchOut); w.Code != http.StatusOK {
		t.Fatalf("batch search nprobe=1: %d %s", w.Code, w.Body.String())
	}
	if len(batchOut.Results) != 2 || len(batchOut.Results[0]) != 3 {
		t.Fatalf("batch search returned %+v, want 2 lists of 3", batchOut.Results)
	}

	var stats client.IndexStats
	if w := call(t, s, "GET", "/v1/indexes/routed/stats", "", &stats); w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body.String())
	}
	if !stats.Routed || stats.RoutedQueries != 2 || stats.ShardsProbed == 0 {
		t.Fatalf("stats = %+v, want routed with 2 routed queries and non-zero shards probed", stats)
	}

	// Validation: negative nprobe, and positive nprobe on an unrouted index.
	w := call(t, s, "POST", "/v1/indexes/routed/search",
		`{"query":[0],"top_k":1,"nprobe":-1}`, nil)
	if w.Code != http.StatusBadRequest || !strings.Contains(errorOf(t, w), "nprobe") {
		t.Fatalf("negative nprobe: %d %s, want 400 mentioning nprobe", w.Code, w.Body.String())
	}
	plain := newTestServer(t)
	req2, _ := json.Marshal(client.SearchRequest{Query: make([]float32, 32), TopK: 1, NProbe: 2})
	w = call(t, plain, "POST", "/v1/indexes/sift/search", string(req2), nil)
	if w.Code != http.StatusBadRequest || !strings.Contains(errorOf(t, w), "routing") {
		t.Fatalf("nprobe on unrouted index: %d %s, want 400 mentioning routing", w.Code, w.Body.String())
	}
}
