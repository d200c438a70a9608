package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/anns"
	"gkmeans/internal/core"
	"gkmeans/internal/nndescent"
	"gkmeans/internal/router"
	"gkmeans/internal/server"
	"gkmeans/internal/vec"
	"gkmeans/internal/wal"
)

// The per-layer half of a traced run. Everything here is timed from the
// outside: the benchmark calls a layer's public functions with the run's
// own inputs and records what it sees. A layer's self time is its median
// minus the median of the layer it calls.

// timeEach runs fn once per i in [0,n) and returns the per-call wall in µs.
func (r *runner) timeEach(name string, n int, fn func(i int)) []float64 {
	us := make([]float64, n)
	for i := range us {
		t := time.Now()
		fn(i)
		end := time.Now()
		us[i] = float64(end.Sub(t)) / 1e3
		r.tr.record(name, 0, int64(i+1), t, end)
	}
	return us
}

var sink float32 // keeps kernel calls from being optimised away

// ladder measures every layer below the serving stages and assembles the
// "where a served request's time goes" table.
func (r *runner) ladder() error {
	r.vecLayer()
	if err := r.coreLayer(); err != nil {
		return err
	}
	if err := r.gkmeansLayer(); err != nil {
		return err
	}
	if err := r.routerLayer(); err != nil {
		return err
	}
	if err := r.serverLayer(); err != nil {
		return err
	}
	r.clientLayer()
	if err := r.walLayer(); err != nil {
		return err
	}
	r.res.layer("loadgen.timer_overshoot_us", r.res.Env.TimerOvershootUS, 200)

	v := func(name string) float64 { return r.res.PerLayer[name].Value }
	transport := v("client.roundtrip_us") - v("server.handler_us")
	r.res.layer("client.transport_us", transport, r.res.PerLayer["client.roundtrip_us"].Samples)
	rows := []ladderRow{
		{"loadgen lateness", v("loadgen.late_p50_us"), "open loop at 200/s: median of send time minus due time"},
		{"client + net/http + loopback", transport, "client.roundtrip_us − server.handler_us"},
		{"server: coalescer wait", v("server.coalescer_wait_us"), "server.handler_us − server.handler_nowindow_us"},
		{"server: decode, limiter, encode", v("server.self_us"), "no-window handler − Index.SearchNProbe, paired per query"},
		{"index: SearchNProbe", r.mainSearchUS, fmt.Sprintf("of which kernels ≈ %.1f µs (server.dist_comps_per_query × the index's bound kernel)", r.kernelUS())},
	}
	sum := 0.0
	for _, row := range rows {
		sum += row.SelfUS
	}
	rows = append(rows,
		ladderRow{"sum of the rows above", sum, ""},
		ladderRow{"served p50 at 200/s, untraced", r.lowP50, fmt.Sprintf("the ladder accounts for %.0f%% of it", 100*sum/r.lowP50)})
	r.res.Ladder = rows
	return r.tr.write(filepath.Join(r.opt.keepDir(), "trace-"+r.opt.workload.Name+".json"))
}

// kernelUS is the share of one served query spent inside the distance
// kernel, from the daemon's own distance count and the kernel's unit cost.
func (r *runner) kernelUS() float64 {
	kernel := "vec.l2sqr_bound_f32_ns"
	if r.main.DType() == gkmeans.DTypeUint8 {
		kernel = "vec.l2sqr_bound_u8_ns"
	}
	return r.res.PerLayer["server.dist_comps_per_query"].Value * r.res.PerLayer[kernel].Value / 1e3
}

// --- internal/vec -----------------------------------------------------------

func (r *runner) vecLayer() {
	const calls = 1 << 18
	rng := rand.New(rand.NewSource(r.opt.seed))
	pairs := make([][2]int, calls)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(r.off.N), rng.Intn(r.off.N)}
	}
	// The bound kernels are given half the mean pair distance, so they
	// abandon part-way, as they do inside a search.
	total := 0.0
	for _, p := range pairs[:1024] {
		total += float64(vec.L2Sqr(r.off.Row(p[0]), r.off.Row(p[1])))
	}
	bound := float32(total / 1024 / 2)
	u8, err := vec.U8FromMatrix(r.off)
	if err != nil {
		panic(err) // SIFTLike rows are exact bytes by construction
	}
	nsPerCall := func(fn func(a, b int)) float64 {
		t := time.Now()
		for _, p := range pairs {
			fn(p[0], p[1])
		}
		return float64(time.Since(t).Nanoseconds()) / calls
	}
	r.res.layer("vec.l2sqr_f32_ns", nsPerCall(func(a, b int) { sink += vec.L2Sqr(r.off.Row(a), r.off.Row(b)) }), calls)
	r.res.layer("vec.l2sqr_bound_f32_ns", nsPerCall(func(a, b int) { sink += vec.L2SqrBound(r.off.Row(a), r.off.Row(b), bound) }), calls)
	r.res.layer("vec.l2sqr_u8_ns", nsPerCall(func(a, b int) { sink += float32(vec.L2SqrU8(u8.Row(a), u8.Row(b))) }), calls)
	ub := vec.U8Bound(bound)
	r.res.layer("vec.l2sqr_bound_u8_ns", nsPerCall(func(a, b int) { sink += float32(vec.L2SqrBoundU8(u8.Row(a), u8.Row(b), ub)) }), calls)
}

// --- internal/core, internal/nndescent, internal/anns ------------------------

// graphRecallAt1 is the share of sampled nodes whose first graph neighbour
// is as close as their exact nearest neighbour.
func graphRecallAt1(data *vec.Matrix, g *gkmeans.Graph, nodes []int) float64 {
	hits := 0
	for _, i := range nodes {
		best := float32(math.MaxFloat32)
		for j := 0; j < data.N; j++ {
			if j != i {
				if d := vec.L2Sqr(data.Row(i), data.Row(j)); d < best {
					best = d
				}
			}
		}
		if len(g.Lists[i]) > 0 && g.Lists[i][0].Dist <= best {
			hits++
		}
	}
	return float64(hits) / float64(len(nodes))
}

func (r *runner) coreLayer() error {
	cfg := core.GraphConfig{Kappa: kappa, Xi: xi, Tau: tau, Seed: r.opt.seed, Workers: r.nproc}
	var g *gkmeans.Graph
	var gs core.GraphStats
	var err error
	t := time.Now()
	r.tr.timed("core.BuildGraphWithStats", 0, 0, func() { g, gs, err = core.BuildGraphWithStats(r.off, cfg) })
	if err != nil {
		return err
	}
	buildS := time.Since(t).Seconds()
	r.res.layer("core.graph_build_s", buildS, 1)
	r.res.layer("core.graph_dist_comps", float64(gs.DistComps), 1)
	r.res.layer("core.graph_rounds", float64(gs.Rounds), 1)
	r.check(graphChecksum(g) == graphChecksum(r.mono.Graph()), "ladder: core.BuildGraphWithStats reproduced the offline stage's graph")

	rng := rand.New(rand.NewSource(r.opt.seed))
	nodes := rng.Perm(r.off.N)[:min(500, r.off.N)]
	r.res.layer("core.graph_recall_at_1", graphRecallAt1(r.off, g, nodes), len(nodes))

	one := cfg
	one.Workers = 1
	t = time.Now()
	if _, _, err = core.BuildGraphWithStats(r.off, one); err != nil {
		return err
	}
	r.res.layer("core.build_speedup_workers", time.Since(t).Seconds()/buildS, 1)

	var cres *core.Result
	r.tr.timed("core.Cluster", 0, 0, func() {
		cres, err = core.Cluster(r.off, g, core.Config{K: r.sz.offRows / 10, MaxIter: clusterEpochs, Seed: r.opt.seed})
	})
	if err != nil {
		return err
	}
	r.res.layer("core.cluster_init_s", cres.InitTime.Seconds(), 1)
	r.res.layer("core.cluster_iter_s", cres.IterTime.Seconds(), cres.Iters)
	r.res.layer("core.cluster_epochs", float64(cres.Iters), 1)
	r.res.layer("core.candidates_per_sample", cres.AvgCandidates, r.off.N)

	t = time.Now()
	ng, ns, err := nndescent.BuildWithStats(r.off, nndescent.Config{Kappa: kappa, Seed: r.opt.seed, Workers: r.nproc})
	if err != nil {
		return err
	}
	r.res.layer("nndescent.build_s", time.Since(t).Seconds(), 1)
	r.res.layer("nndescent.dist_comps", float64(ns.DistComps), 1)
	r.res.layer("nndescent.graph_recall_at_1", graphRecallAt1(r.off, ng, nodes), len(nodes))

	// internal/anns on the offline graph, with its own ground truth when
	// the offline rows are only part of the corpus.
	queries := rowsView(r.queries, 0, r.sz.truthQ)
	truth := r.truth
	if r.off.N != r.data.N {
		truth = anns.ExactTruth(r.off, queries, topK, r.nproc)
	}
	t = time.Now()
	s, err := anns.NewSearcher(r.off, g, monoEntries)
	if err != nil {
		return err
	}
	r.res.layer("anns.newsearcher_s", time.Since(t).Seconds(), 1)
	for q := 0; q < queries.N; q++ { // warm-up
		s.Search(queries.Row(q), topK, ef)
	}
	q0, d0, e0 := s.Totals()
	us := r.timeEach("anns.Searcher.Search", queries.N, func(i int) { s.Search(queries.Row(i), topK, ef) })
	q1, d1, e1 := s.Totals()
	nq, dist, exp := float64(q1-q0), float64(d1-d0), float64(e1-e0)
	totalNS := mean(us) * 1e3 * nq
	r.res.layer("anns.search_us", median(us), queries.N)
	r.res.layer("anns.dist_comps_per_query", dist/nq, queries.N)
	r.res.layer("anns.expanded_per_query", exp/nq, queries.N)
	r.res.layer("anns.ns_per_dist", totalNS/dist, int(dist))
	r.res.layer("anns.ns_per_expansion", totalNS/exp, int(exp))
	r.res.layer("anns.results_per_dist_comp", topK*nq/dist, int(dist))
	r.res.layer("anns.recall_at_10", anns.RecallAt(s, queries, truth, topK, ef), queries.N)
	r.res.layer("anns.recall_at_10_ef256", anns.RecallAt(s, queries, truth, topK, 256), queries.N)
	return nil
}

// --- root package: routed fan-out, mutation, persistence ----------------------

func (r *runner) gkmeansLayer() error {
	// The routed index the fan-out numbers are read on: the main index
	// when the workload serves one, otherwise one built here over the
	// same corpus.
	rt := r.main
	if !rt.Routed() {
		var err error
		if rt, err = gkmeans.Build(r.ctx, r.data, r.buildOpts(gkmeans.WithShards(4), gkmeans.WithRouting(16))...); err != nil {
			return err
		}
	}
	queries := rowsView(r.queries, 0, r.sz.truthQ)
	probe := func(np int) (us float64, st gkmeans.SearchStats) {
		for q := 0; q < queries.N; q++ { // warm-up
			rt.SearchNProbe(queries.Row(q), topK, ef, np)
		}
		s0 := rt.SearchStats()
		per := r.timeEach(fmt.Sprintf("Index.SearchNProbe np=%d", np), queries.N, func(i int) { rt.SearchNProbe(queries.Row(i), topK, ef, np) })
		s1 := rt.SearchStats()
		return median(per), gkmeans.SearchStats{
			Queries:       s1.Queries - s0.Queries,
			DistanceComps: s1.DistanceComps - s0.DistanceComps,
			ShardsProbed:  s1.ShardsProbed - s0.ShardsProbed,
		}
	}
	shards := rt.Shards()
	np1, _ := probe(1)
	np2, st2 := probe(2)
	npAll, _ := probe(shards)
	r.res.layer("gkmeans.search_np1_us", np1, queries.N)
	r.res.layer("gkmeans.search_np2_us", np2, queries.N)
	r.res.layer("gkmeans.search_npall_us", npAll, queries.N)
	fixed, perProbe := fitLine([]float64{1, 2, float64(shards)}, []float64{np1, np2, npAll})
	r.res.layer("gkmeans.us_per_probe", perProbe, 3)
	r.res.layer("gkmeans.fanout_fixed_us", fixed, 3)
	r.res.layer("gkmeans.shards_probed_per_query", float64(st2.ShardsProbed)/float64(st2.Queries), queries.N)
	r.res.layer("gkmeans.dist_comps_per_query", float64(st2.DistanceComps)/float64(st2.Queries), queries.N)

	recall := func(efv, np int) float64 {
		return r.recallOf(func(q int) []int32 { return idsOf(rt.SearchNProbe(queries.Row(q), topK, efv, np)) })
	}
	r.res.layer("gkmeans.routing_recall_loss", recall(ef, shards)-recall(ef, 2), queries.N)
	r.res.layer("gkmeans.recall_at_10_ef256_npall", recall(256, shards), queries.N)

	// Mutation: what one memtable flush, one delete and one compaction of
	// the fresh fragment cost the write path.
	fresh := rowsView(r.pool, 0, min(256, r.pool.N))
	var grown *gkmeans.Index
	var err error
	t := time.Now()
	r.tr.timed("Index.Append", 0, 0, func() { grown, err = rt.Append(r.ctx, fresh) })
	if err != nil {
		return err
	}
	r.res.layer("gkmeans.append_256_ms", float64(time.Since(t))/1e6, fresh.N)
	cur := grown
	del := r.timeEach("Index.Delete", 20, func(i int) {
		if err == nil {
			cur, err = cur.Delete(int32(3*i), int32(3*i+1), int32(3*i+2))
		}
	})
	if err != nil {
		return err
	}
	r.res.layer("gkmeans.delete_us", median(del), len(del))
	t = time.Now()
	r.tr.timed("Index.Compact", 0, 0, func() { _, err = cur.Compact(r.ctx, cur.Shards()-2, cur.Shards()-1) })
	if err != nil {
		return err
	}
	r.res.layer("gkmeans.compact_ms", float64(time.Since(t))/1e6, 1)

	path := filepath.Join(r.opt.workDir, "ladder.gkx")
	t = time.Now()
	if err := gkmeans.SaveIndex(path, r.main); err != nil {
		return err
	}
	r.res.layer("gkmeans.save_s", time.Since(t).Seconds(), 1)
	t = time.Now()
	if _, err := gkmeans.LoadIndex(path); err != nil {
		return err
	}
	r.res.layer("gkmeans.load_s", time.Since(t).Seconds(), 1)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.res.layer("gkmeans.file_bytes_per_vector", float64(fi.Size())/float64(r.main.N()), r.main.N())
	width := 4
	if r.main.DType() == gkmeans.DTypeUint8 {
		width = 1
	}
	r.res.layer("gkmeans.dataset_bytes_per_vector", float64(r.main.Dim()*width), r.main.N())
	return nil
}

// --- internal/router ----------------------------------------------------------

func (r *runner) routerLayer() error {
	const shards, k = 4, 32
	cents := make([]*vec.Matrix, shards)
	for s := range cents {
		part := rowsView(r.off, s*r.off.N/shards, (s+1)*r.off.N/shards)
		var err error
		if cents[s], err = router.BuildShard(part, k, r.opt.seed, r.nproc); err != nil {
			return err
		}
	}
	table, err := router.New(k, r.off.Dim, cents)
	if err != nil {
		return err
	}
	order, dists := make([]int32, shards), make([]float32, shards)
	const calls = 20000
	t := time.Now()
	for i := 0; i < calls; i++ {
		table.Rank(r.queryRow(i), order, dists)
	}
	r.res.layer("router.rank_ns", float64(time.Since(t).Nanoseconds())/calls, calls)
	return nil
}

// --- internal/server ----------------------------------------------------------

// handlerUS serves the given bodies through a server's root handler on an
// httptest recorder and returns the median wall per request. When inner is
// given it is timed right before each request — the same query through the
// layer below, microseconds apart — and selfUS is the median of the paired
// differences, which two medians taken a second apart cannot resolve.
func (r *runner) handlerUS(name string, cfg server.Config, path string, bodies [][]byte, inner func(i int)) (us, selfUS float64, err error) {
	srv := server.New(cfg)
	defer srv.BeginShutdown()
	if err := srv.RegisterIndex("main", r.main); err != nil {
		return 0, 0, err
	}
	h := srv.Handler()
	bad := 0
	serve := func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/indexes/main/"+path, bytes.NewReader(bodies[i]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			bad++
		}
	}
	for i := range bodies { // warm-up; on the cache configuration it also fills the cache
		serve(i)
	}
	each, self := make([]float64, len(bodies)), make([]float64, len(bodies))
	for i := range bodies {
		t0 := time.Now()
		if inner != nil {
			inner(i)
		}
		t1 := time.Now()
		serve(i)
		t2 := time.Now()
		r.tr.record(name, 0, int64(i+1), t1, t2)
		each[i] = float64(t2.Sub(t1)) / 1e3
		self[i] = each[i] - float64(t1.Sub(t0))/1e3
	}
	r.res.addPhase("ladder-"+name, 2*len(bodies), bad)
	return median(each), median(self), nil
}

func (r *runner) serverLayer() error {
	const n = 300
	search := make([][]byte, n)
	for i := range search {
		search[i] = mustJSON(client.SearchRequest{Query: r.queryRow(i), TopK: topK, Ef: ef, NProbe: r.opt.workload.NProbe})
	}
	for i := 0; i < n; i++ { // warm-up
		r.search(r.queryRow(i))
	}
	r.mainSearchUS = median(r.timeEach("Index.SearchNProbe", n, func(i int) { r.search(r.queryRow(i)) }))

	def, _, err := r.handlerUS("server.Handler", server.Config{}, "search", search, nil)
	if err != nil {
		return err
	}
	noWindow, self, err := r.handlerUS("server.Handler window=-1", server.Config{Window: -1}, "search", search,
		func(i int) { r.search(r.queryRow(i)) })
	if err != nil {
		return err
	}
	hit, _, err := r.handlerUS("server.Handler cache hit", server.Config{Window: -1, CacheSize: 4096}, "search", search, nil)
	if err != nil {
		return err
	}
	inserts := make([][]byte, 64)
	for i := range inserts {
		rows := make([][]float32, insertRows)
		for j := range rows {
			rows[j] = r.pool.Row((i*insertRows + j) % r.pool.N)
		}
		inserts[i] = mustJSON(client.InsertRequest{Vectors: rows})
	}
	ins, _, err := r.handlerUS("server.Handler insert", server.Config{}, "insert", inserts, nil)
	if err != nil {
		return err
	}
	r.res.layer("server.handler_us", def, n)
	r.res.layer("server.handler_nowindow_us", noWindow, n)
	r.res.layer("server.coalescer_wait_us", def-noWindow, n)
	r.res.layer("server.self_us", self, n)
	r.res.layer("server.cache_hit_us", hit, n)
	r.res.layer("server.insert_handler_us", ins, len(inserts))
	return nil
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of finite floats always marshal
	}
	return blob
}

// --- gkmeans/client -----------------------------------------------------------

func (r *runner) clientLayer() {
	const n = 1000
	var reqBytes, respBytes int
	resp := make([][]byte, n)
	for i := range resp {
		nbs := r.search(r.queryRow(i))
		wire := make([]client.Neighbor, len(nbs))
		for j, nb := range nbs {
			wire[j] = client.Neighbor{ID: nb.ID, Dist: nb.Dist}
		}
		resp[i] = mustJSON(client.SearchResponse{Results: [][]client.Neighbor{wire}})
		respBytes += len(resp[i])
	}
	enc := r.timeEach("json.Marshal SearchRequest", n, func(i int) {
		reqBytes += len(mustJSON(client.SearchRequest{Query: r.queryRow(i), TopK: topK, Ef: ef, NProbe: r.opt.workload.NProbe}))
	})
	dec := r.timeEach("json.Unmarshal SearchResponse", n, func(i int) {
		var out client.SearchResponse
		if err := json.Unmarshal(resp[i], &out); err != nil {
			panic(err) // it was marshalled three lines up
		}
	})
	r.res.layer("client.encode_request_us", median(enc), n)
	r.res.layer("client.decode_response_us", median(dec), n)
	r.res.layer("client.request_bytes", float64(reqBytes)/n, n)
	r.res.layer("client.response_bytes", float64(respBytes)/n, n)
}

// --- internal/wal ---------------------------------------------------------------

func (r *runner) walLayer() error {
	path := filepath.Join(r.opt.workDir, "probe.wal")
	log, err := wal.Open(path)
	if err != nil {
		return err
	}
	defer log.Close()
	const appends = 64
	dim := r.pool.Dim
	us := r.timeEach("wal.Log.Append", appends, func(i int) {
		if err != nil {
			return
		}
		lo := (i * insertRows) % (r.pool.N - insertRows)
		var payload []byte
		if payload, err = wal.EncodeInsert(int32(i*insertRows), dim, r.pool.Data[lo*dim:(lo+insertRows)*dim]); err == nil {
			err = log.Append(payload)
		}
	})
	if err != nil {
		return err
	}
	r.res.layer("wal.append_fsync_us", median(us), appends)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.res.layer("wal.bytes_per_vector", float64(fi.Size())/(appends*insertRows), appends*insertRows)
	t := time.Now()
	n, err := log.Replay(func(p []byte) error { _, err := wal.Decode(p); return err })
	if err != nil {
		return err
	}
	r.res.layer("wal.replay_s", time.Since(t).Seconds(), n)
	r.res.layer("wal.records", float64(log.Records()), n)
	return nil
}

// --- what the serving stages saw (called from run.go while the daemon is up) ---

// readObs is what the serve-read stage hands to readLayer.
type readObs struct {
	d                 *daemon
	cl                *client.Client
	one               func(c, i int) bool
	low, high, closed []sample
	dur               time.Duration
	littles           float64
	before, after     client.IndexStats // around all four phases
	closed0, closed1  client.IndexStats // around the closed-loop phase
	closedCPU         time.Duration     // daemon CPU over the closed-loop phase
	selfCPU           time.Duration     // this process's CPU over the four phases
}

func wholeP(samples []sample, value func(sample) float64, p float64) float64 {
	var v []float64
	for _, s := range samples {
		if !s.failed {
			v = append(v, value(s))
		}
	}
	return quantile(sorted(v), p)
}

func (r *runner) readLayer(o readObs) error {
	r.lowP50 = wholeP(o.low, latencyUS, 0.5)
	r.res.layer("loadgen.late_p50_us", wholeP(o.low, latenessUS, 0.5), len(o.low))
	r.res.layer("loadgen.late_p99_us", wholeP(o.low, latenessUS, 0.99), len(o.low))
	r.res.layer("loadgen.littles_law_ratio", o.littles, len(o.closed))
	r.res.layer("loadgen.cpu_s", o.selfCPU.Seconds(), 1)
	r.res.layer("serve.search_p99_us_r200", wholeP(o.low, latencyUS, 0.99), len(o.low))
	r.res.layer("serve.search_p99_us_r600", wholeP(o.high, latencyUS, 0.99), len(o.high))

	queries := float64(o.after.Queries - o.before.Queries)
	r.res.layer("server.dist_comps_per_query", float64(o.after.DistanceComps-o.before.DistanceComps)/queries, int(queries))
	closedQ := float64(o.closed1.Queries - o.closed0.Queries)
	r.res.layer("server.queries_per_batch", closedQ/math.Max(1, float64(o.closed1.Batches-o.closed0.Batches)), int(closedQ))
	r.res.layer("gkserved.cpu_us_per_query", float64(o.closedCPU.Microseconds())/closedQ, int(closedQ))
	rss, err := procRSSMB(o.d.pid())
	if err != nil {
		return err
	}
	r.res.layer("gkserved.rss_mb", rss, 1)
	r.res.layer("gkserved.start_s", o.d.startup.Seconds(), 1)

	fams, err := o.cl.Metrics(r.ctx)
	if err != nil {
		return err
	}
	total := func(name string) float64 {
		sum := 0.0
		if f, ok := client.Find(fams, name); ok {
			for _, s := range f.Samples {
				sum += s.Value
			}
		}
		return sum
	}
	requests := math.Max(1, total("gkserved_requests_total"))
	r.res.layer("server.shed_share", total("gkserved_shed_total")/requests, int(requests))
	r.res.layer("server.deadline_share", total("gkserved_deadline_exceeded_total")/requests, int(requests))

	// One connection, closed loop, timed from send: the round trip with no
	// schedule in front of it.
	var begun time.Time
	rt, err := r.phase("read-roundtrip", func() ([]sample, error) {
		begun = time.Now()
		return runClosed(o.dur/2, 1, o.one), nil
	})
	if err != nil {
		return err
	}
	r.spans("client.SearchNProbe roundtrip", begun, rt)
	r.res.layer("client.roundtrip_us", wholeP(rt, servedUS, 0.5), len(rt))

	// Tracing overhead: the low-rate phase once more, this time recording
	// each span inside the operation instead of after the phase.
	traced, err := r.phase("read-open-low-traced", func() ([]sample, error) {
		s := runOpen(lowRate, o.dur, r.nproc, func(c, i int) bool {
			ok := false
			r.tr.timed("client.SearchNProbe traced", 0, int64(i+1), func() { ok = o.one(c, i) })
			return ok
		})
		return s, gateOpenLoop(s, o.dur)
	})
	if err != nil {
		return err
	}
	r.res.layer("trace.overhead_share", wholeP(traced, latencyUS, 0.5)/r.lowP50-1, len(traced))
	return nil
}

func (r *runner) mixedLayer(cl *client.Client, before client.IndexStats, reads, inserts, deletes []sample) {
	after := r.statsOf(cl)
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	r.res.layer("server.cache_hit_share", hits/math.Max(1, hits+misses), int(hits+misses))
	r.res.layer("server.flushes", float64(after.Flushes-before.Flushes), 1)
	r.res.layer("server.compactions", float64(after.Compactions-before.Compactions), 1)
	r.res.layer("server.epoch_bumps", float64(after.Epoch-before.Epoch), 1)
	r.res.layer("server.shards_end", float64(after.Shards), 1)
	r.res.layer("serve.search_p99_us_mixed", wholeP(reads, latencyUS, 0.99), len(reads))
	r.res.layer("serve.delete_ack_p50_us", wholeP(deletes, latencyUS, 0.5), len(deletes))
	r.res.layer("serve.insert_ack_p99_us", wholeP(inserts, latencyUS, 0.99), len(inserts))
}
