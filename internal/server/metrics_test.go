package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
)

// indexSamples scrapes /metrics and returns the samples labelled with the
// given index, keyed by series name.
func indexSamples(t *testing.T, s *Server, index string) map[string]float64 {
	t.Helper()
	w := call(t, s, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	families, err := client.ParseMetrics(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := map[string]float64{}
	for _, f := range families {
		for _, sm := range f.Samples {
			if sm.Labels["index"] == index {
				out[sm.Name] = sm.Value
			}
		}
	}
	return out
}

func mustStats(t *testing.T, s *Server, index string) client.IndexStats {
	t.Helper()
	var st client.IndexStats
	if w := call(t, s, "GET", "/v1/indexes/"+index+"/stats", "", &st); w.Code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", w.Code, w.Body.String())
	}
	return st
}

// statsExempt lists the IndexStats fields /metrics does not render: the
// index's identity and configuration, not serving state.
var statsExempt = map[string]bool{
	"Path": true, "Name": true, "DType": true, "CoalesceWindowNS": true,
	"Durable": true, "HasClusters": true, "Routed": true,
}

// statSeries is one sample series of indexFamilies and how it renders a
// snapshot.
type statSeries struct {
	series string
	render func(client.IndexStats) float64
}

// seriesOf maps every IndexStats field /metrics renders to the series that
// renders it. It sets one field at a time and watches which series move, so
// a field without a row in indexFamilies, or with more than one, fails the
// test.
func seriesOf(t *testing.T) map[string]statSeries {
	t.Helper()
	var outputs []statSeries
	for _, f := range indexFamilies {
		if f.count == nil {
			outputs = append(outputs, statSeries{f.name, f.value})
			continue
		}
		outputs = append(outputs, statSeries{f.name + "_sum", f.value}, statSeries{f.name + "_count", f.count})
	}
	fields := map[string]statSeries{}
	readers := map[string][]string{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(client.IndexStats{})) {
		if f.Anonymous {
			continue
		}
		var st client.IndexStats
		v := reflect.ValueOf(&st).Elem().FieldByIndex(f.Index)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint64:
			v.SetUint(1)
		default:
			if !statsExempt[f.Name] {
				t.Errorf("IndexStats.%s is a %s: neither a numeric counter nor exempt", f.Name, f.Type)
			}
			continue
		}
		var moved []statSeries
		for _, o := range outputs {
			if o.render(st) != o.render(client.IndexStats{}) {
				moved = append(moved, o)
				readers[o.series] = append(readers[o.series], f.Name)
			}
		}
		switch {
		case statsExempt[f.Name] && len(moved) > 0:
			t.Errorf("exempt IndexStats.%s is rendered by %s", f.Name, moved[0].series)
		case !statsExempt[f.Name] && len(moved) != 1:
			t.Errorf("IndexStats.%s is rendered by %d series, want 1: give it one row in indexFamilies", f.Name, len(moved))
		case len(moved) == 1:
			fields[f.Name] = moved[0]
		}
	}
	for _, o := range outputs {
		if len(readers[o.series]) != 1 {
			t.Errorf("series %s renders fields %v, want exactly one", o.series, readers[o.series])
		}
	}
	return fields
}

// statsTrace serves a fresh index and drives it through every kind of
// traffic that moves a serving counter: a cluster request, single searches
// with cache hits, an explicit batch, inserts up to a flush and a buffered
// remainder, deletes of built and buffered rows, a compaction, and one
// search after it. The index is its own, not sharedIndex: an index lineage
// shares its search counters, and other tests' searches must not move them
// between two reads.
func statsTrace(t *testing.T) *Server {
	t.Helper()
	data, queries := dataset.Split(dataset.SIFTLike(540, 7), 40)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(10), gkmeans.WithXi(25), gkmeans.WithTau(4), gkmeans.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: -1, CacheSize: 64, MemtableThreshold: 4})
	if err := s.RegisterIndex("sift", idx); err != nil {
		t.Fatal(err)
	}
	if w := call(t, s, "POST", "/v1/indexes/sift/cluster", `{"k":4,"max_iter":2,"seed":1}`, nil); w.Code != http.StatusOK {
		t.Fatalf("cluster: status %d: %s", w.Code, w.Body.String())
	}
	for _, qi := range []int{0, 0, 1, 0, 2} {
		mustSearch(t, s, "sift", queries.Row(qi), 5, 32)
	}
	batch := searchBodyFull(t, client.SearchRequest{
		Queries: [][]float32{queries.Row(3), queries.Row(4), queries.Row(5)}, TopK: 5, Ef: 32})
	if w := call(t, s, "POST", "/v1/indexes/sift/search", batch, nil); w.Code != http.StatusOK {
		t.Fatalf("batch search: status %d: %s", w.Code, w.Body.String())
	}
	rows := make([][]float32, 6)
	for i := range rows {
		rows[i] = insertedRow(idx.Dim(), i)
	}
	mustInsert(t, s, "sift", rows[:4]) // fills the memtable: one flush
	mustInsert(t, s, "sift", rows[4:]) // stays buffered
	doomed := []int32{int32(idx.N()) + 5}
	for id := int32(0); id <= int32(idx.N()/4); id++ {
		doomed = append(doomed, id)
	}
	mustDelete(t, s, "sift", doomed...)
	if ran, err := s.CompactNow("sift"); err != nil || !ran {
		t.Fatalf("CompactNow: ran=%v err=%v", ran, err)
	}
	mustSearch(t, s, "sift", queries.Row(0), 5, 32)
	return s
}

// /stats and /metrics render one snapshot: after a trace that moves every
// kind of counter, each numeric IndexStats field equals its /metrics
// sample.
func TestStatsAndMetricsAgree(t *testing.T) {
	fields := seriesOf(t)
	s := statsTrace(t)
	st := mustStats(t, s, "sift")
	samples := indexSamples(t, s, "sift")
	for name, f := range fields {
		got, ok := samples[f.series]
		if !ok {
			t.Errorf("IndexStats.%s: series %s missing from /metrics", name, f.series)
		} else if want := f.render(st); got != want {
			t.Errorf("IndexStats.%s: /metrics %s = %v, /stats renders %v", name, f.series, got, want)
		}
	}
	// The trace reached what it set out to: nine queries of which two cache
	// hits, one batch request, one flush, one compaction, two rows buffered.
	if st.Queries != 9 || st.CacheHits != 2 || st.BatchRequests != 1 || st.ClusterRequests != 1 ||
		st.Flushes != 1 || st.Compactions != 1 || st.Pending != 2 || st.Deletes == 0 || st.DistanceComps == 0 {
		t.Fatalf("trace did not move the counters it should: %+v", st)
	}
}

// gkserved_queries_total counts what /stats' queries counts: every query
// answered, cache hits included.
func TestMetricsQueriesIncludeCacheHits(t *testing.T) {
	s, queries := cacheServer(t, 1, 64)
	for i := 0; i < 5; i++ {
		mustSearch(t, s, "sift", queries.Row(0), 5, 64)
	}
	samples := indexSamples(t, s, "sift")
	if q, hits := samples["gkserved_queries_total"], samples["gkserved_cache_hits_total"]; q != 5 || hits != 4 {
		t.Fatalf("gkserved_queries_total %v with %v cache hits, want 5 with 4", q, hits)
	}
}

// One scrape renders one snapshot per index: under concurrent deletes,
// flushes and searches, live and deleted rows always sum to the rows of the
// same scrape.
func TestMetricsScrapeIsOneSnapshot(t *testing.T) {
	// A torn scrape needs a delete to land between two reads of one
	// render, so the index holds many rows for the deletes to move.
	data, queries := dataset.Split(dataset.SIFTLike(2040, 8), 40)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(6), gkmeans.WithXi(20), gkmeans.WithTau(2), gkmeans.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Window: -1, MemtableThreshold: 4})
	if err := s.RegisterIndex("mut", idx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg, writers sync.WaitGroup
	// run repeats op up to limit times, or until the scrapes are done.
	run := func(wg *sync.WaitGroup, limit int, op func(i int) httpResult) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < limit; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if res := op(i); res.code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", res.code, res.body)
					return
				}
			}
		}()
	}
	run(&wg, 1<<30, func(i int) httpResult {
		return httpRequest(s, "POST", "/v1/indexes/mut/search", searchBody(queries.Row(i%queries.N), 5, 32))
	})
	// Every delete moves a row from live to deleted.
	run(&writers, idx.N()-10, func(i int) httpResult {
		return httpRequest(s, "POST", "/v1/indexes/mut/delete", fmt.Sprintf(`{"ids":[%d]}`, i))
	})
	// Every fourth insert flushes a new shard; 40 keep the fan-out small.
	run(&writers, 40, func(i int) httpResult {
		body, _ := json.Marshal(client.InsertRequest{Vectors: [][]float32{insertedRow(idx.Dim(), i)}})
		return httpRequest(s, "POST", "/v1/indexes/mut/insert", string(body))
	})
	written := make(chan struct{})
	go func() { writers.Wait(); close(written) }()

	for scrape, done := 0, false; !done; scrape++ {
		select {
		case <-written:
			done = true // one more scrape of the final state
		default:
		}
		m := indexSamples(t, s, "mut")
		rows, live, deleted := m["gkserved_index_rows"], m["gkserved_index_live_rows"], m["gkserved_index_deleted_rows"]
		if live+deleted != rows {
			t.Fatalf("scrape %d: live %v + deleted %v != rows %v", scrape, live, deleted, rows)
		}
		if st := mustStats(t, s, "mut"); st.Live+st.Deleted != st.N {
			t.Fatalf("stats %d: live %d + deleted %d != n %d", scrape, st.Live, st.Deleted, st.N)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
