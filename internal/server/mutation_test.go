package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
)

func insertBody(t testing.TB, vectors [][]float32) string {
	t.Helper()
	b, err := json.Marshal(client.InsertRequest{Vectors: vectors})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func deleteBody(t testing.TB, ids []int32) string {
	t.Helper()
	b, err := json.Marshal(client.DeleteRequest{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mustInsert inserts vectors over HTTP and returns the decoded response.
func mustInsert(t testing.TB, s *Server, name string, vectors [][]float32) client.InsertResponse {
	t.Helper()
	var out client.InsertResponse
	w := call(t, s, "POST", "/v1/indexes/"+name+"/insert", insertBody(t, vectors), &out)
	if w.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", w.Code, w.Body.String())
	}
	return out
}

func mustDelete(t testing.TB, s *Server, name string, ids ...int32) client.DeleteResponse {
	t.Helper()
	var out client.DeleteResponse
	w := call(t, s, "POST", "/v1/indexes/"+name+"/delete", deleteBody(t, ids), &out)
	if w.Code != http.StatusOK {
		t.Fatalf("delete %v: status %d: %s", ids, w.Code, w.Body.String())
	}
	return out
}

func mustSearch(t *testing.T, s *Server, name string, q []float32, topK, ef int) []client.Neighbor {
	t.Helper()
	var out client.SearchResponse
	w := call(t, s, "POST", "/v1/indexes/"+name+"/search", searchBody(q, topK, ef), &out)
	if w.Code != http.StatusOK {
		t.Fatalf("search: status %d: %s", w.Code, w.Body.String())
	}
	if len(out.Results) != 1 {
		t.Fatalf("search returned %d result lists", len(out.Results))
	}
	return out.Results[0]
}

// insertedRow builds a deterministic, easily recognisable vector far from
// the SIFT-like data distribution, so a self-lookup at distance zero can
// only hit the inserted row itself.
func insertedRow(dim, i int) []float32 {
	row := make([]float32, dim)
	for d := range row {
		row[d] = float32(1000+17*i) + float32(d)
	}
	return row
}

// durableScenario drives a full mutate→crash→restart cycle against a
// server whose index was built with the given worker count, and returns
// the search results the restarted server produces for a fixed query set.
//
// The crash is simulated the hard way: the first server is simply
// abandoned — no shutdown, no WAL close, no flush of buffered rows — and a
// fresh server is pointed at the same data directory, exactly as a process
// restart after SIGKILL would be.
func durableScenario(t *testing.T, workers int) [][]client.Neighbor {
	t.Helper()
	const name = "mut"
	all := dataset.SIFTLike(240, 6)
	data, queries := dataset.Split(all, 20)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithXi(20), gkmeans.WithTau(3),
		gkmeans.WithSeed(5), gkmeans.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.gkx")
	if err := gkmeans.SaveIndex(orig, idx); err != nil {
		t.Fatal(err)
	}
	bound := int32(idx.N())
	cfg := Config{Window: -1, DataDir: filepath.Join(dir, "state"), MemtableThreshold: 4}

	s1 := New(cfg)
	if err := s1.RegisterFile(name, orig); err != nil {
		t.Fatal(err)
	}
	rows := make([][]float32, 6)
	for i := range rows {
		rows[i] = insertedRow(idx.Dim(), i)
	}
	// First insert fills the memtable exactly: flushed into a shard.
	r1 := mustInsert(t, s1, name, rows[:4])
	if r1.FirstID != bound || r1.Count != 4 || !r1.Flushed || r1.Pending != 0 {
		t.Fatalf("first insert: %+v", r1)
	}
	// Second insert stays buffered: durable in the WAL, not yet searchable.
	r2 := mustInsert(t, s1, name, rows[4:])
	if r2.FirstID != bound+4 || r2.Flushed || r2.Pending != 2 {
		t.Fatalf("second insert: %+v", r2)
	}
	// Delete two original rows, one flushed inserted row, and one row that
	// is still buffered (its tombstone must survive the crash too).
	doomed := []int32{3, 17, bound + 1, bound + 4}
	if dr := mustDelete(t, s1, name, doomed...); dr.Deleted != 4 {
		t.Fatalf("delete: %+v", dr)
	}

	// -- crash: s1 is abandoned with 2 rows buffered and 4 tombstones. --

	s2 := New(cfg)
	if err := s2.RegisterFile(name, orig); err != nil {
		t.Fatal(err)
	}
	var info client.IndexInfo
	for _, ix := range listIndexes(t, s2) {
		if ix.Name == name {
			info = ix
		}
	}
	// Replay restored the flushed shard (4 rows appended to the index), the
	// 2 buffered rows, and all tombstones aimed at built rows.
	if info.N != idx.N()+4 || info.Pending != 2 {
		t.Fatalf("after restart: N=%d (want %d) pending=%d (want 2)", info.N, idx.N()+4, info.Pending)
	}
	if info.Deleted != 3 { // 3, 17, bound+1; bound+4 is still buffered
		t.Fatalf("after restart: deleted=%d, want 3", info.Deleted)
	}

	// Two more rows trigger the flush of the buffered pair; the tombstone
	// on bound+4 must be applied in the same step.
	r3 := mustInsert(t, s2, name, [][]float32{insertedRow(idx.Dim(), 6), insertedRow(idx.Dim(), 7)})
	if r3.FirstID != bound+6 || !r3.Flushed {
		t.Fatalf("post-restart insert: %+v", r3)
	}

	ef := idx.N() + 8 // exhaustive: the checks below must not hinge on recall
	// Every surviving inserted row is found by self-lookup at distance 0.
	for _, i := range []int{0, 2, 3, 5, 6, 7} {
		id := bound + int32(i)
		res := mustSearch(t, s2, name, insertedRow(idx.Dim(), i), 1, ef)
		if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
			t.Fatalf("self-lookup of inserted row %d: %+v", i, res)
		}
	}
	// Deleted rows never appear — not even searching their own vector.
	for _, i := range []int{1, 4} {
		for _, nb := range mustSearch(t, s2, name, insertedRow(idx.Dim(), i), 10, ef) {
			if nb.ID == bound+int32(i) {
				t.Fatalf("deleted inserted row %d resurfaced", i)
			}
		}
	}
	results := make([][]client.Neighbor, queries.N)
	for qi := 0; qi < queries.N; qi++ {
		results[qi] = mustSearch(t, s2, name, queries.Row(qi), 10, ef)
		for _, nb := range results[qi] {
			for _, d := range doomed {
				if nb.ID == d {
					t.Fatalf("query %d returned deleted id %d", qi, d)
				}
			}
		}
	}
	return results
}

func listIndexes(t *testing.T, s *Server) []client.IndexInfo {
	t.Helper()
	var out client.ListResponse
	if w := call(t, s, "GET", "/v1/indexes", "", &out); w.Code != http.StatusOK {
		t.Fatalf("list: status %d", w.Code)
	}
	return out.Indexes
}

// Acknowledged mutations survive a kill -9: the WAL restores them on the
// next start, and the restored index answers searches identically no
// matter how many workers rebuilt it.
func TestServerDurableRestartReplaysWAL(t *testing.T) {
	res1 := durableScenario(t, 1)
	res2 := durableScenario(t, 2)
	if len(res1) != len(res2) {
		t.Fatalf("scenario result counts differ: %d vs %d", len(res1), len(res2))
	}
	for qi := range res1 {
		if len(res1[qi]) != len(res2[qi]) {
			t.Fatalf("query %d: %d vs %d results across worker counts", qi, len(res1[qi]), len(res2[qi]))
		}
		for j := range res1[qi] {
			if res1[qi][j] != res2[qi][j] {
				t.Fatalf("query %d result %d differs across worker counts: %+v vs %+v",
					qi, j, res1[qi][j], res2[qi][j])
			}
		}
	}
}

// Compaction must be invisible to search: same results bit for bit, fewer
// shards, tombstones gone — and after a checkpoint, a restart replays only
// what the checkpoint does not already cover.
func TestServerCompactionPreservesSearchResults(t *testing.T) {
	const name = "cpt"
	idx, queries := sharedIndex(t)
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.gkx")
	if err := gkmeans.SaveIndex(orig, idx); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: -1, DataDir: filepath.Join(dir, "state"), MemtableThreshold: 4}
	s := New(cfg)
	if err := s.RegisterFile(name, orig); err != nil {
		t.Fatal(err)
	}

	// Grow two small shards, then tombstone >25% of the original shard so
	// the default policy selects it.
	for i := 0; i < 2; i++ {
		rows := make([][]float32, 4)
		for j := range rows {
			rows[j] = insertedRow(idx.Dim(), 4*i+j)
		}
		if r := mustInsert(t, s, name, rows); !r.Flushed {
			t.Fatalf("insert %d did not flush: %+v", i, r)
		}
	}
	doomed := make([]int32, idx.N()/4+1)
	for i := range doomed {
		doomed[i] = int32(i)
	}
	mustDelete(t, s, name, doomed...)

	ef := idx.N() + 16
	before := make([][]client.Neighbor, queries.N)
	for qi := range before {
		before[qi] = mustSearch(t, s, name, queries.Row(qi), 10, ef)
	}

	ran, err := s.CompactNow(name)
	if err != nil || !ran {
		t.Fatalf("CompactNow: ran=%v err=%v", ran, err)
	}
	var st client.IndexStats
	if w := call(t, s, "GET", "/v1/indexes/"+name+"/stats", "", &st); w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	if st.Compactions != 1 || st.Deleted != 0 || !st.Durable {
		t.Fatalf("post-compaction stats: compactions=%d deleted=%d durable=%v",
			st.Compactions, st.Deleted, st.Durable)
	}
	if st.N != idx.N()+8-len(doomed) {
		t.Fatalf("post-compaction N=%d, want %d", st.N, idx.N()+8-len(doomed))
	}
	for qi := range before {
		after := mustSearch(t, s, name, queries.Row(qi), 10, ef)
		if len(after) != len(before[qi]) {
			t.Fatalf("query %d: %d results after compaction, %d before", qi, len(after), len(before[qi]))
		}
		for j := range after {
			if after[j] != before[qi][j] {
				t.Fatalf("query %d result %d changed across compaction: %+v vs %+v",
					qi, j, before[qi][j], after[j])
			}
		}
	}

	// The checkpoint superseded the WAL: nothing was buffered, so the
	// rewritten log is empty, and a restarted server must prefer the
	// checkpoint over the (stale, pre-mutation) registered index.
	if _, err := os.Stat(filepath.Join(cfg.DataDir, name+".gkx")); err != nil {
		t.Fatalf("no checkpoint after compaction: %v", err)
	}
	s2 := New(cfg)
	if err := s2.RegisterIndex(name, idx); err != nil {
		t.Fatal(err)
	}
	for qi := range before {
		after := mustSearch(t, s2, name, queries.Row(qi), 10, ef)
		for j := range after {
			if after[j] != before[qi][j] {
				t.Fatalf("query %d result %d differs after checkpoint restart", qi, j)
			}
		}
	}
}

// Concurrent searches across insert/delete/compaction swaps: every request
// succeeds, and an id whose delete was acknowledged before the search
// began never appears in its results. Run with -race this doubles as the
// hot-swap data-race check.
func TestServerHotSwapUnderSearchLoad(t *testing.T) {
	const name = "swap"
	idx, queries := sharedIndex(t)
	s := New(Config{Window: time.Millisecond, MaxBatch: 8, MemtableThreshold: 2})
	if err := s.RegisterIndex(name, idx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	acked := make(map[int32]bool) // deletes acknowledged so far
	snapshot := func() map[int32]bool {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[int32]bool, len(acked))
		for id := range acked {
			out[id] = true
		}
		return out
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for qi := 0; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				// No t.Fatal off the test goroutine: report via errs.
				dead := snapshot()
				req := httptest.NewRequest("POST", "/v1/indexes/"+name+"/search",
					strings.NewReader(searchBody(queries.Row((qi+r)%queries.N), 5, 128)))
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d: %s", r, w.Code, w.Body.String())
					return
				}
				var out client.SearchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || len(out.Results) != 1 {
					errs <- fmt.Errorf("reader %d: bad search response: %v", r, err)
					return
				}
				for _, nb := range out.Results[0] {
					if dead[nb.ID] {
						errs <- fmt.Errorf("reader %d: deleted id %d in results", r, nb.ID)
						return
					}
				}
			}
		}(r)
	}

	for round := 0; round < 30; round++ {
		rows := [][]float32{insertedRow(idx.Dim(), 2*round), insertedRow(idx.Dim(), 2*round+1)}
		mustInsert(t, s, name, rows) // threshold 2: every insert flushes
		doomed := int32(round)
		mustDelete(t, s, name, doomed)
		mu.Lock()
		acked[doomed] = true
		mu.Unlock()
		if round%10 == 9 {
			if _, err := s.CompactNow(name); err != nil {
				t.Fatalf("CompactNow: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestServerMutationErrorPaths(t *testing.T) {
	s := newTestServer(t)
	idx, _ := sharedIndex(t)

	cases := []struct {
		name, path, body string
		wantCode         int
		wantErr          string
	}{
		{"insert no vectors", "/v1/indexes/sift/insert", `{"vectors":[]}`, 400, "at least one vector"},
		{"insert ragged row", "/v1/indexes/sift/insert", `{"vectors":[[1,2]]}`, 400, "dimensionality"},
		{"insert unknown index", "/v1/indexes/nope/insert", `{"vectors":[[1]]}`, 404, "unknown index"},
		{"insert bad json", "/v1/indexes/sift/insert", `{"vectors":`, 400, "malformed"},
		{"insert unknown field", "/v1/indexes/sift/insert", `{"rows":[[1]]}`, 400, "malformed"},
		{"delete no ids", "/v1/indexes/sift/delete", `{"ids":[]}`, 400, "at least one id"},
		{"delete unknown id", "/v1/indexes/sift/delete", `{"ids":[999999]}`, 400, "unknown id"},
		{"delete negative id", "/v1/indexes/sift/delete", `{"ids":[-4]}`, 400, "unknown id"},
		{"delete unknown index", "/v1/indexes/nope/delete", `{"ids":[1]}`, 404, "unknown index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := call(t, s, "POST", tc.path, tc.body, nil)
			if w.Code != tc.wantCode {
				t.Fatalf("status %d, want %d (%s)", w.Code, tc.wantCode, w.Body.String())
			}
			if msg := errorOf(t, w); !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", msg, tc.wantErr)
			}
		})
	}
	// A rejected mixed delete applies nothing: the known id must survive.
	w := call(t, s, "POST", "/v1/indexes/sift/delete", deleteBody(t, []int32{5, 999999}), nil)
	if w.Code != 400 {
		t.Fatalf("mixed delete: status %d", w.Code)
	}
	res := mustSearch(t, s, "sift", idx.Data().Row(5), 1, 128)
	if len(res) != 1 || res[0].ID != 5 {
		t.Fatalf("id 5 was deleted by a rejected request: %+v", res)
	}
}

// A Build-time clustering blocks inserts (Index.Append could never apply
// them, so logging one would break the ack-means-durable-and-applicable
// contract), but the first delete drops the clustering and lifts the
// restriction — mirroring the root API.
func TestServerInsertOnClusteredIndex(t *testing.T) {
	data := dataset.SIFTLike(60, 3)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(4), gkmeans.WithXi(10), gkmeans.WithTau(2),
		gkmeans.WithSeed(5), gkmeans.WithClusters(3))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: -1})
	if err := s.RegisterIndex("clustered", idx); err != nil {
		t.Fatal(err)
	}

	body := insertBody(t, [][]float32{insertedRow(idx.Dim(), 0)})
	w := call(t, s, "POST", "/v1/indexes/clustered/insert", body, nil)
	if w.Code != 400 {
		t.Fatalf("insert on clustered index: status %d (%s)", w.Code, w.Body.String())
	}
	if msg := errorOf(t, w); !strings.Contains(msg, "clustering") {
		t.Fatalf("error %q does not mention the clustering", msg)
	}

	mustDelete(t, s, "clustered", 7)
	ins := mustInsert(t, s, "clustered", [][]float32{insertedRow(idx.Dim(), 0)})
	if ins.FirstID != int32(idx.N()) {
		t.Fatalf("post-delete insert assigned id %d, want %d", ins.FirstID, idx.N())
	}
}
