package main

import (
	"gkmeans"
)

// metricSpec names one metric. BENCHMARK.json at the repository root
// carries the same names, units, directions and bounds; spec_test.go keeps
// the two from drifting.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	// Exact marks a count that must repeat bit-for-bit at a fixed seed;
	// -agree lists the exact counts that differ between two result files.
	Exact bool
	// ZeroOK marks a per-layer count that is legitimately zero on a healthy
	// run (sheds, deadline expiries); the no-zero gate skips it.
	ZeroOK bool
	Help   string
}

// The end-to-end metrics: what a user of the library or the daemon sees.
// Every workload reports every one of them; README.md says which stage of
// the pipeline feeds a name on which workload.
//
// Bounds and estimators: on this class of shared 2-core VM the neighbours
// slow the guest by anything up to 1.6× for minutes at a time, and a median
// of raw CPU-bound timings spreads 20–30% over ten runs. The CPU-bound
// metrics — set-up, build, cluster, in-process search, batch throughput,
// restart — are therefore built from the best time of each repeated piece
// of work (stats.go) and scaled to a reference host by a kernel run beside
// them (reference.go), which brings ten runs within 5–15%; latencies that
// the coalescing window, timers or fsync dominate are medians of segments.
// Every timing bound still sits at 0.25, the most BENCHMARK.json may state;
// the two quality metrics are deterministic at a fixed seed and get tight
// bounds, twice what ten seeds' corpora spread them by (distortion up to
// 1.2%, recall up to 1.8% on the routed indexes).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Help: "everything outside the timed phases: corpus, index builds, ground truth, save, daemon builds and spawns, warm-ups, verification; at reference speed"},
	{Name: "build_s", Unit: "s", Better: "lower", Bound: 0.25, Help: "wall of gkmeans.Build over the offline corpus: every graph round at its best of the repetitions, at reference speed"},
	{Name: "cluster_s", Unit: "s", Better: "lower", Bound: 0.25, Help: "wall of Index.Cluster(k=n/10, 10 epochs) on that index: every epoch at its best of the repetitions, at reference speed"},
	{Name: "distortion", Unit: "sqdist", Better: "lower", Bound: 0.02, Help: "Result.Distortion of that clustering (average squared distance)"},
	{Name: "search_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Help: "median single-query latency of the workload's own read path (in process: across queries, each at its best of the passes, at reference speed)"},
	{Name: "search_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Help: "in-process Index.Search, one goroutine: p99 across 1024 queries of each query's best latency over the passes, at reference speed"},
	{Name: "search_p90_us", Unit: "us", Better: "lower", Bound: 0.25, Help: "p90 of served reads beside writes (the cache-miss path)"},
	{Name: "loaded_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Help: "median served latency at 300 requests/s, open loop, timed from due"},
	{Name: "closed_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Help: "served queries/s, closed loop, nproc connections"},
	{Name: "batch_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Help: "queries/s through the workload's batch entry point: every request of the cycle at its best of the passes, at reference speed"},
	{Name: "recall_at_10", Unit: "fraction", Better: "higher", Bound: 0.03, Help: "recall@10 of the workload's own read path against exact neighbours over external ids"},
	{Name: "insert_ack_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Help: "median /insert acknowledgement (WAL fsync + round trip), open loop, timed from due"},
	{Name: "insert_ack_p90_us", Unit: "us", Better: "lower", Bound: 0.25, Help: "p90 /insert acknowledgement: the highest percentile a run supports in every segment"},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25, Help: "gkserved spawn to healthy after SIGKILL, checkpoint load and WAL replay included: best of 7, at reference speed"},
}

// The per-layer metrics, prefix = module. README.md lists which
// end-to-end metric each should move.
var perLayer = []metricSpec{
	{Name: "vec.l2sqr_f32_ns", Unit: "ns", Better: "lower"},
	{Name: "vec.l2sqr_bound_f32_ns", Unit: "ns", Better: "lower"},
	{Name: "vec.l2sqr_u8_ns", Unit: "ns", Better: "lower"},
	{Name: "vec.l2sqr_bound_u8_ns", Unit: "ns", Better: "lower"},

	{Name: "anns.search_us", Unit: "us", Better: "lower"},
	{Name: "anns.dist_comps_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "anns.expanded_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "anns.ns_per_dist", Unit: "ns", Better: "lower"},
	{Name: "anns.ns_per_expansion", Unit: "ns", Better: "lower"},
	{Name: "anns.results_per_dist_comp", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "anns.newsearcher_s", Unit: "s", Better: "lower"},
	{Name: "anns.recall_at_10", Unit: "fraction", Better: "higher", Exact: true},
	{Name: "anns.recall_at_10_ef256", Unit: "fraction", Better: "higher", Exact: true},

	{Name: "core.graph_build_s", Unit: "s", Better: "lower"},
	{Name: "core.graph_dist_comps", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.graph_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.graph_recall_at_1", Unit: "fraction", Better: "higher", Exact: true},
	{Name: "core.cluster_init_s", Unit: "s", Better: "lower"},
	{Name: "core.cluster_iter_s", Unit: "s", Better: "lower"},
	{Name: "core.cluster_epochs", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.candidates_per_sample", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.build_speedup_workers", Unit: "ratio", Better: "higher"},
	{Name: "nndescent.build_s", Unit: "s", Better: "lower"},
	{Name: "nndescent.dist_comps", Unit: "count", Better: "lower", Exact: true},
	{Name: "nndescent.graph_recall_at_1", Unit: "fraction", Better: "higher", Exact: true},

	{Name: "gkmeans.search_np1_us", Unit: "us", Better: "lower"},
	{Name: "gkmeans.search_np2_us", Unit: "us", Better: "lower"},
	{Name: "gkmeans.search_npall_us", Unit: "us", Better: "lower"},
	{Name: "gkmeans.us_per_probe", Unit: "us", Better: "lower"},
	{Name: "gkmeans.fanout_fixed_us", Unit: "us", Better: "lower"},
	{Name: "gkmeans.shards_probed_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "gkmeans.dist_comps_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "gkmeans.routing_recall_loss", Unit: "fraction", Better: "lower", Exact: true, ZeroOK: true},
	{Name: "gkmeans.recall_at_10_ef256_npall", Unit: "fraction", Better: "higher", Exact: true},
	{Name: "gkmeans.append_256_ms", Unit: "ms", Better: "lower"},
	{Name: "gkmeans.delete_us", Unit: "us", Better: "lower"},
	{Name: "gkmeans.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "gkmeans.save_s", Unit: "s", Better: "lower"},
	{Name: "gkmeans.load_s", Unit: "s", Better: "lower"},
	{Name: "gkmeans.file_bytes_per_vector", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "gkmeans.dataset_bytes_per_vector", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "router.rank_ns", Unit: "ns", Better: "lower"},

	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_nowindow_us", Unit: "us", Better: "lower"},
	{Name: "server.coalescer_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.insert_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "fraction", Better: "higher"},
	{Name: "server.queries_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "server.dist_comps_per_query", Unit: "count", Better: "lower"},
	{Name: "server.shed_share", Unit: "fraction", Better: "lower", ZeroOK: true},
	{Name: "server.deadline_share", Unit: "fraction", Better: "lower", ZeroOK: true},
	{Name: "server.flushes", Unit: "count", Better: "lower", ZeroOK: true},
	{Name: "server.compactions", Unit: "count", Better: "lower", ZeroOK: true},
	{Name: "server.epoch_bumps", Unit: "count", Better: "lower"},
	{Name: "server.shards_end", Unit: "count", Better: "lower"},

	{Name: "client.encode_request_us", Unit: "us", Better: "lower"},
	{Name: "client.decode_response_us", Unit: "us", Better: "lower"},
	{Name: "client.request_bytes", Unit: "bytes", Better: "lower"},
	{Name: "client.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "client.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "client.transport_us", Unit: "us", Better: "lower"},

	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_vector", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "wal.replay_s", Unit: "s", Better: "lower"},
	{Name: "wal.records", Unit: "count", Better: "lower", Exact: true},

	{Name: "gkserved.cpu_us_per_query", Unit: "us", Better: "lower"},
	{Name: "gkserved.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "gkserved.start_s", Unit: "s", Better: "lower"},

	{Name: "loadgen.late_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.timer_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.littles_law_ratio", Unit: "ratio", Better: "lower"},

	{Name: "serve.search_p99_us_r200", Unit: "us", Better: "lower"},
	{Name: "serve.search_p99_us_r600", Unit: "us", Better: "lower"},
	{Name: "serve.search_p99_us_mixed", Unit: "us", Better: "lower"},
	{Name: "serve.delete_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.insert_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower", ZeroOK: true},
}

// A stage is one section of the pipeline every run walks through.
type stage int

const (
	stageOffline stage = iota // gkmeans.Build + Index.Cluster, whole repetitions
	stageInproc               // Index.Search / SearchBatch in this process
	stageRead                 // default-flag gkserved, reads only
	stageMixed                // durable gkserved, reads beside writes, then SIGKILL + restart
	numStages
)

var stageNames = [numStages]string{"offline", "inproc", "serve-read", "serve-mixed"}

// workloadSpec is one row of the workload table. Every workload walks the
// same four-stage pipeline over a corpus drawn from the seed — so every
// metric is defined on every workload — and differs in the index it builds
// and in where it spends the run's measured seconds: Share gives each
// stage's part of -seconds, and the stage with the largest share is the
// workload's focus and feeds the metric names the stages share
// (search_p50_us, batch_qps, recall_at_10).
type workloadSpec struct {
	Name string
	Why  string
	N    int // indexed rows of the main index
	// Opts are the main index's build options beyond the common ones
	// (κ=20, ξ=50, τ=8, workers=nproc, seed, entry points); nil means a
	// monolithic float32 index.
	Opts   []gkmeans.Option
	NProbe int // per-query probe count handed to SearchNProbe; 0 on unrouted indexes
	Share  [numStages]float64
}

func (w workloadSpec) focus() stage {
	best := stageOffline
	for s := stage(0); s < numStages; s++ {
		if w.Share[s] > w.Share[best] {
			best = s
		}
	}
	return best
}

// p50Stage returns the stage whose single-query reads feed search_p50_us
// on this workload: the focus, or the in-process stage when the focus has
// no reads of its own.
func (w workloadSpec) p50Stage() stage {
	if f := w.focus(); f != stageOffline {
		return f
	}
	return stageInproc
}

// served reports whether the workload's focus is the daemon; batch_qps and
// recall_at_10 are then read through HTTP in the serve-read stage, and
// otherwise in this process.
func (w workloadSpec) served() bool {
	return w.focus() == stageRead || w.focus() == stageMixed
}

var workloads = []workloadSpec{
	{
		Name:  "cluster-offline",
		Why:   "the paper's own workload: core, kmeans and the build-side kernels do the work; search and serving only get a short coverage pass",
		N:     10000,
		Share: [numStages]float64{0.34, 0.22, 0.22, 0.22},
	},
	{
		Name:  "search-inproc",
		Why:   "library read path on a monolithic float32 index: anns and the float32 kernels are nearly all of the time, so a serving-layer change must read no change on its search metrics",
		N:     12000,
		Share: [numStages]float64{0.22, 0.34, 0.22, 0.22},
	},
	{
		Name:   "serve-read",
		Why:    "daemon read path on a routed uint8 index: server, JSON and net/http dominate latency, with router, fan-out merge and uint8 kernels underneath; the batch phase bypasses the coalescer",
		N:      12000,
		Opts:   []gkmeans.Option{gkmeans.WithDType(gkmeans.DTypeUint8), gkmeans.WithShards(4), gkmeans.WithRouting(32)},
		NProbe: 2,
		Share:  [numStages]float64{0.22, 0.22, 0.34, 0.22},
	},
	{
		Name:   "serve-mixed",
		Why:    "writes beside reads on a routed float32 index: same server, but through cache, epoch invalidation, WAL fsync and memtable flushes (Append, Delete), then crash recovery by WAL replay",
		N:      10000,
		Opts:   []gkmeans.Option{gkmeans.WithShards(4), gkmeans.WithRouting(16)},
		NProbe: 2,
		Share:  [numStages]float64{0.22, 0.22, 0.22, 0.34},
	},
}

// Common operating point. κ, ξ, τ follow the issue; the entry-point count
// is raised from the library default of 16 because on this mixture recall
// is set by entry-point coverage of the mixture components, not by ef: at
// the default it lands anywhere between 0.39 and 0.75 depending on the
// seed, which no bound could gate. 512 on a monolithic index, or 256 on
// each shard of a routed one, saturates it at every seed tried.
const (
	kappa        = 20
	xi           = 50
	tau          = 8
	monoEntries  = 512
	shardEntries = 256
	topK         = 10
	ef           = 64

	// offlineRows is how many rows of the corpus the offline stage builds
	// and clusters, over and over: few enough that a graph round takes 30 ms
	// and a repetition a third of a second, because the best of a dozen short
	// pieces comes close to an undisturbed host and the best of three long
	// ones does not (10000 rows at 2.3 s a repetition spread 17% where 2500
	// rows spread 6%).
	offlineRows   = 2500
	clusterEpochs = 10   // fixed: the convergence epoch varies 15–24 with the seed
	heldOut       = 2048 // held-out query rows
	truthQueries  = 1000 // of which this many are scored for recall …
	timedQueries  = 1024 // … and this many timed one by one in process: ten of them lie beyond the p99
	zipfPool      = 64   // distinct queries of the mixed-stage reader
	zipfS         = 1.1

	lowRate   = 200.0 // requests/s, open loop
	highRate  = 300.0
	batchSize = 16 // queries per explicit batch request
	// The batch phases cycle over a fixed set of requests, so that each is
	// timed at its best over the passes: the held-out queries in quarters
	// through SearchBatch, 32 requests of 16 queries through the daemon.
	batchParts    = 4
	batchRequests = 32

	readRate = 250.0 // mixed stage: reads/s; one connection, so well below the 1/latency it can carry
	// The mixed stage's writer: one vector per insert, a memtable flush
	// every ≈2.6 s. A flush stalls the inserts queued behind it — 3 to 8% of
	// a segment's on a busy host — and that share has to stay clear of 10%,
	// or insert_ack_p90_us flips between the fsync path and the stall.
	writeRate    = 100.0 // write operations/s …
	deleteEvery  = 100   // … of which every 100th, one a second, is a delete: each bumps the epoch and so empties the query cache, and much more often than that the reader stops hitting it
	insertRows   = 1     // vectors per insert
	deleteIDs    = 6     // ids per delete
	bulkRows     = 2048  // written in requests of bulkBatch after the timed phase, before the first crash
	bulkBatch    = 64
	restarts     = 7
	sampledCheck = 200 // served answers compared bit for bit with the in-process index
	deletedCheck = 500 // searches after each restart that must not return a deleted id
)

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
