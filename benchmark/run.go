package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/anns"
	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// options is one invocation: a workload, its seed, and how long to measure.
type options struct {
	workload workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workDir  string // scratch directory inside the checkout; the caller removes it
}

// sizes are the row counts of a run; -smoke shrinks them so the tier-1
// test can walk the whole pipeline in seconds.
type sizes struct {
	n, offRows, held, truthQ, bulk, restarts int
}

func (o options) sizes() sizes {
	if o.smoke {
		return sizes{n: 2000, offRows: 2000, held: 256, truthQ: 200, bulk: 2 * bulkBatch, restarts: 3}
	}
	return sizes{n: o.workload.N, offRows: offlineRows, held: heldOut, truthQ: truthQueries, bulk: bulkRows, restarts: restarts}
}

// stageDur is the measured time a stage gets on this run.
func (o options) stageDur(s stage) time.Duration {
	return time.Duration(o.workload.Share[s] * o.seconds * float64(time.Second))
}

// runner walks one workload through the pipeline and fills in a result.
type runner struct {
	opt   options
	sz    sizes
	nproc int
	res   *result
	tr    *tracer
	ref   *reference
	ctx   context.Context

	began time.Time
	timed time.Duration // sum of the timed phases so far; the rest of the wall is set-up

	data, off, queries, pool *vec.Matrix
	truth                    [][]int32 // exact top-10 external ids of the first truthQ queries
	mono, main               *gkmeans.Index
	indexPath, bin           string
	nextReq                  int64
	// spawn starts a daemon with the given flags; tests substitute a fake
	// to show that a wrong answer or a forgotten write fails the run.
	spawn func(args ...string) (*daemon, error)

	// What the stages leave behind for the traced ladder.
	offRep       time.Duration // wall of the warm-up offline repetition
	lowP50       float64       // traced run: served p50 at lowRate, µs
	mainSearchUS float64       // traced run: median Index.SearchNProbe on the main index
}

func newRunner(opt options) *runner {
	r := &runner{
		opt:   opt,
		sz:    opt.sizes(),
		nproc: runtime.GOMAXPROCS(0),
		res:   newResult(opt),
		ref:   newReference(opt.seed),
		ctx:   context.Background(),
		began: time.Now(),
	}
	if opt.trace {
		r.tr = newTracer()
	}
	r.spawn = func(args ...string) (*daemon, error) { return startDaemon(r.bin, args...) }
	return r
}

func (r *runner) note(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// check records one output-correctness check; a failed one makes the run
// incorrect but lets it finish, so the result file shows everything that
// went wrong at once.
func (r *runner) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.res.Checks = append(r.res.Checks, "ok: "+msg)
		return
	}
	r.res.Checks = append(r.res.Checks, "FAILED: "+msg)
	r.res.Correct = false
}

// phase runs one timed phase. body returns the phase's samples and the
// verdict of its sanity gates; a void phase is thrown away and run again,
// up to three attempts. A third void is kept, with a note in the result: on
// a shared VM the hypervisor now and then starves the guest for seconds on
// end (one run in forty, while this was written), every gate trips at once,
// and a benchmark that then exits non-zero is a benchmark nobody can run
// ten times in a row. At smoke scale phases are too short for the gates to
// mean anything, so there the first attempt is kept.
func (r *runner) phase(name string, body func() ([]sample, error)) ([]sample, error) {
	const attempts = 3
	for attempt := 1; ; attempt++ {
		t := time.Now()
		samples, gate := body()
		r.timed += time.Since(t)
		switch {
		case gate == nil:
		case r.opt.smoke:
			r.note("phase %s: gate ignored at smoke scale: %v", name, gate)
		case attempt < attempts:
			r.note("phase %s void, run again: %v", name, gate)
			continue
		default:
			r.note("phase %s void %d times, last attempt kept: %v", name, attempts, gate)
		}
		r.res.addPhase(name, len(samples), countFailed(samples))
		return samples, nil
	}
}

// spans records one span per sample of a finished phase. Samples already
// carry their instants, so a traced run pays for tracing after the phase,
// not inside it.
func (r *runner) spans(name string, phaseStart time.Time, samples []sample) {
	if r.tr == nil {
		return
	}
	for _, s := range samples {
		r.nextReq++
		r.tr.record(name, 0, r.nextReq, phaseStart.Add(s.start), phaseStart.Add(s.end))
	}
}

// buildOpts is the common operating point plus a workload's own options;
// none means a monolithic index.
func (r *runner) buildOpts(extra ...gkmeans.Option) []gkmeans.Option {
	entries := shardEntries
	if len(extra) == 0 {
		entries = monoEntries
	}
	return append([]gkmeans.Option{
		gkmeans.WithKappa(kappa), gkmeans.WithXi(xi), gkmeans.WithTau(tau),
		gkmeans.WithWorkers(r.nproc), gkmeans.WithSeed(r.opt.seed),
		gkmeans.WithEntryPoints(entries),
	}, extra...)
}

func rowsView(m *vec.Matrix, from, to int) *vec.Matrix {
	return &vec.Matrix{Data: m.Data[from*m.Dim : to*m.Dim], N: to - from, Dim: m.Dim}
}

// run walks the pipeline: set-up, then the four stages in a fixed order.
func (r *runner) run() error {
	if err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	for _, st := range []func() error{r.offlineStage, r.inprocStage, r.readStage, r.mixedStage} {
		if err := st(); err != nil {
			return err
		}
	}
	wall := time.Since(r.began)
	r.res.e2e("setup_s", measure{Value: (wall - r.timed).Seconds(), Samples: 1}.atReference(r.ref.overall(), false))
	r.res.TimedS = r.timed.Seconds()
	if r.tr != nil {
		if err := r.ladder(); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return r.res.finish()
}

// setup generates the corpus from the seed, builds the main index, works
// out ground truth, saves the index and builds the daemon. The first
// offline repetition runs here too, untimed: it is the warm-up that grows
// the heap, and where the main index is monolithic and no bigger (at smoke
// scale) its index is the main index.
func (r *runner) setup() error {
	o, sz := r.opt, r.sz
	// Enough fresh rows for the mixed phase to run three times, should it be voided.
	poolRows := 3*int(writeRate*o.stageDur(stageMixed).Seconds())*insertRows + sz.bulk + 64
	all := dataset.SIFTLike(sz.n+sz.held+poolRows, o.seed)
	var rest *vec.Matrix
	r.data, rest = dataset.Split(all, sz.held+poolRows)
	r.queries = rowsView(rest, 0, sz.held)
	r.pool = rowsView(rest, sz.held, rest.N)
	r.off = rowsView(r.data, 0, sz.offRows)

	// Set-up is CPU-bound too; the host's speed is read before and after
	// each of its three big pieces.
	hostSpeed := func() { r.ref.reading(r.ref.burst(r.nproc, refBurst), refDepthCoarse) }
	hostSpeed()
	t := time.Now()
	mono, _, _, _, err := r.offlineRep()
	if err != nil {
		return err
	}
	r.offRep = time.Since(t) + refBurst
	r.res.WarmUps++
	r.mono = mono
	hostSpeed()
	switch {
	case len(o.workload.Opts) == 0 && sz.n == sz.offRows:
		r.main = mono
	default:
		if r.main, err = gkmeans.Build(r.ctx, r.data, r.buildOpts(o.workload.Opts...)...); err != nil {
			return err
		}
	}
	hostSpeed()
	r.truth = anns.ExactTruth(r.data, rowsView(r.queries, 0, sz.truthQ), topK, r.nproc)
	hostSpeed()

	r.indexPath = filepath.Join(o.workDir, "main.gkx")
	if err := gkmeans.SaveIndex(r.indexPath, r.main); err != nil {
		return err
	}
	r.bin, err = buildDaemon(o.keepDir())
	return err
}

// --- offline stage ----------------------------------------------------------

// offlineRep is one whole repetition of the paper's workload: build the
// graph index over the offline rows, then cluster it. The walls come back
// cut at every progress callback of the public API — one per graph round,
// one per clustering epoch — the finest parts of the work an outside
// observer can time.
func (r *runner) offlineRep() (idx *gkmeans.Index, res *gkmeans.Result, build, cluster []float64, err error) {
	var marks []time.Time
	open := true // the index keeps the callback; it must fall silent once the repetition is over
	progress := gkmeans.WithProgress(func(string, int, int) {
		if open {
			marks = append(marks, time.Now())
		}
	})
	defer func() { open = false }()
	t0 := time.Now()
	idx, err = gkmeans.Build(r.ctx, r.off, append(r.buildOpts(), progress)...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t1 := time.Now()
	rounds := len(marks)
	res, err = idx.Cluster(r.ctx, r.sz.offRows/10, gkmeans.WithMaxIter(clusterEpochs))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t2 := time.Now()
	r.tr.record("gkmeans.Build", 0, 0, t0, t1)
	r.tr.record("Index.Cluster", 0, 0, t1, t2)
	return idx, res, partsBetween(t0, marks[:rounds], t1), partsBetween(t1, marks[rounds:], t2), nil
}

// partsBetween cuts [from, to] at the marks and returns the parts' walls in
// seconds.
func partsBetween(from time.Time, marks []time.Time, to time.Time) []float64 {
	parts := make([]float64, 0, len(marks)+1)
	for _, m := range marks {
		parts = append(parts, m.Sub(from).Seconds())
		from = m
	}
	return append(parts, to.Sub(from).Seconds())
}

func graphChecksum(g *gkmeans.Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, list := range g.Lists {
		for _, nb := range list {
			b[0], b[1], b[2], b[3] = byte(nb.ID), byte(nb.ID>>8), byte(nb.ID>>16), byte(nb.ID>>24)
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func (r *runner) offlineStage() error {
	// Whole repetitions, their number fixed before timing starts from the
	// stage's share and the warm-up repetition's wall.
	reps := int(math.Round(r.opt.stageDur(stageOffline).Seconds() / r.offRep.Seconds()))
	if reps < 3 {
		reps = 3
	}
	builds, clusters := make([][]float64, 0, reps), make([][]float64, 0, reps)
	var distortion float64
	want := graphChecksum(r.mono.Graph())
	sameGraph, sameDistortion, valid := true, true, true
	var units []float64 // reference kernel, nproc goroutines, between the repetitions
	_, err := r.phase("offline", func() ([]sample, error) {
		samples := make([]sample, reps)
		t0 := time.Now()
		for i := range samples {
			units = append(units, r.ref.burst(r.nproc, refBurst)...)
			start := time.Since(t0)
			idx, res, b, c, err := r.offlineRep()
			samples[i] = sample{due: start, start: start, end: time.Since(t0), failed: err != nil}
			if err != nil {
				continue
			}
			builds, clusters = append(builds, b), append(clusters, c)
			d := res.Distortion(r.off)
			if len(builds) > 1 && d != distortion {
				sameDistortion = false
			}
			distortion = d
			sameGraph = sameGraph && graphChecksum(idx.Graph()) == want
			valid = valid && res.Validate(r.off) == nil
		}
		units = append(units, r.ref.burst(r.nproc, refBurst)...)
		return samples, nil
	})
	if err != nil {
		return err
	}
	r.check(valid, "offline: Result.Validate on all %d repetitions", reps)
	r.check(sameGraph, "offline: same seed gave the identical graph on all %d repetitions", reps)
	r.check(sameDistortion, "offline: same seed gave the identical distortion on all %d repetitions", reps)
	host := r.ref.reading(units, refDepthCoarse)
	r.res.e2e("build_s", sumOfBests(builds).atReference(host, false))
	r.res.e2e("cluster_s", sumOfBests(clusters).atReference(host, false))
	r.res.e2e("distortion", measure{Value: distortion, Samples: reps})
	return nil
}

// --- in-process stage -------------------------------------------------------

func (r *runner) search(q []float32) []gkmeans.Neighbor {
	return r.main.SearchNProbe(q, topK, ef, r.opt.workload.NProbe)
}

func idsOf(nbs []gkmeans.Neighbor) []int32 {
	ids := make([]int32, len(nbs))
	for i, nb := range nbs {
		ids[i] = nb.ID
	}
	return ids
}

// recallOf scores answers to the first truthQ queries against the exact
// neighbours, over external ids.
func (r *runner) recallOf(ids func(q int) []int32) float64 {
	hits, total := 0, 0
	for q, want := range r.truth {
		got := ids(q)
		for _, w := range want {
			for _, g := range got {
				if g == w {
					hits++
					break
				}
			}
		}
		total += len(want)
	}
	return float64(hits) / float64(total)
}

func (r *runner) inprocStage() error {
	wl := r.opt.workload
	dur := r.opt.stageDur(stageInproc)
	durA, durB := dur*3/5, dur*2/5 // single queries; batches, half before them and half after

	// Warm-up pass, untimed: forces the lazy searcher build and doubles as
	// the recall measurement.
	recall := r.recallOf(func(q int) []int32 { return idsOf(r.search(r.queries.Row(q))) })
	r.res.WarmUps++

	// The batch phase: the query set through SearchBatch on nproc workers, a
	// quarter of it per call, the reference kernel on nproc goroutines after
	// every call. It runs in two halves with the single queries between
	// them: now and then the two workers and the scheduler settle into a
	// slow arrangement that lasts a phase, and a request's best over both
	// halves needs only one of them to have gone well.
	quarter := r.queries.N / batchParts
	part := func(_, i int) bool {
		lo := i % batchParts * quarter
		return len(r.main.SearchBatchNProbe(rowsView(r.queries, lo, lo+quarter), topK, ef, wl.NProbe)) == quarter
	}
	for i := 0; i < batchParts; i++ { // once untimed, to start the workers' scratch pools
		part(0, i)
	}
	var begun time.Time
	var batchPasses [][]float64
	var batchUnits []float64
	batchHalf := func() error {
		var units []float64
		batch, err := r.phase("inproc-batch", func() ([]sample, error) {
			begun, units = time.Now(), nil
			return runClosedResting(durB/2, 0, batchParts, part, func() { units = append(units, r.ref.burst(r.nproc, refBurst/4)...) }), nil
		})
		r.spans("Index.SearchBatch", begun, batch)
		batchPasses = append(batchPasses, byKey(values(batch, servedUS), batchParts)...)
		batchUnits = append(batchUnits, units...)
		return err
	}
	if err := batchHalf(); err != nil {
		return err
	}

	// Single queries: one goroutine, closed loop, cycling through the first
	// timedQueries held-out queries in order, so that every one of them is
	// timed once a pass and a coverage pass still makes ten passes. The same
	// goroutine spins the reference kernel for 2 ms in every 10.
	timed := min(timedQueries, r.queries.N)
	var units []float64
	rng := rand.New(rand.NewSource(r.opt.seed))
	single, err := r.phase("inproc-single", func() ([]sample, error) {
		begun, units = time.Now(), nil
		s := runClosedResting(durA, 8*time.Millisecond, timed, func(_, i int) bool {
			return len(r.search(r.queries.Row(i%timed))) == topK
		}, func() { units = append(units, r.ref.spin(rng, 2*time.Millisecond)...) })
		return s, gateMeanBelowP99(segmented(s, durA, minSegments, servedUS))
	})
	if err != nil {
		return err
	}
	r.spans("Index.Search", begun, single)
	passes := byKey(values(single, servedUS), timed)
	host := r.ref.reading(units, refDepthFine)
	r.res.e2e("search_p99_us", percentileOfBests(passes, 0.99).atReference(host, false))
	if wl.p50Stage() == stageInproc {
		r.res.e2e("search_p50_us", percentileOfBests(passes, 0.5).atReference(host, false))
	}
	if !wl.served() {
		r.res.e2e("recall_at_10", measure{Value: recall, Samples: len(r.truth)})
	}

	if err := batchHalf(); err != nil {
		return err
	}
	if !wl.served() {
		r.res.e2e("batch_qps", throughputOfBests(batchPasses, quarter).
			atReference(r.ref.reading(batchUnits, refDepthCoarse), true))
	}
	return nil
}

// --- serve-read stage -------------------------------------------------------

func (r *runner) newClient(d *daemon) *client.Client {
	// No retries: a 429 or 504 is a failed operation here, not a delay.
	return client.New(d.url, client.WithRetries(0))
}

func (r *runner) queryRow(i int) []float32 { return r.queries.Row(i % r.queries.N) }

// sameAnswer reports whether a served answer equals the in-process one bit
// for bit.
func sameAnswer(got []client.Neighbor, want []gkmeans.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
			return false
		}
	}
	return true
}

func (r *runner) readStage() error {
	wl := r.opt.workload
	// Three phases that timers dominate get a fifth of the stage each; the
	// batch phase is CPU-bound and gets the other two fifths.
	dur := r.opt.stageDur(stageRead) / 5

	t := time.Now()
	d, err := r.spawn("-index", "main="+r.indexPath)
	if err != nil {
		return err
	}
	defer d.kill()
	r.tr.record("gkserved.start", 0, 0, t, time.Now())
	clients := make([]*client.Client, r.nproc)
	for i := range clients {
		clients[i] = r.newClient(d)
		defer clients[i].Close()
	}
	one := func(c, i int) bool {
		nbs, err := clients[c].SearchNProbe(r.ctx, "main", r.queryRow(i), topK, ef, wl.NProbe)
		return err == nil && len(nbs) == topK
	}

	// Warm-up and correctness, untimed: every connection is opened, a
	// sample of served answers must equal the in-process index bit for
	// bit, and the served recall is scored through the batch endpoint.
	bad, failed := 0, 0
	for i := 0; i < sampledCheck; i++ {
		nbs, err := clients[i%len(clients)].SearchNProbe(r.ctx, "main", r.queryRow(i), topK, ef, wl.NProbe)
		switch {
		case err != nil:
			failed++
		case !sameAnswer(nbs, r.search(r.queryRow(i))):
			bad++
		}
	}
	r.res.WarmUps++
	r.res.addPhase("read-verify", sampledCheck, failed+bad)
	r.check(bad == 0 && failed == 0, "serve-read: %d sampled HTTP answers bit-identical to Index.SearchNProbe (%d differ, %d failed)", sampledCheck, bad, failed)
	if wl.served() {
		served := make([][]int32, len(r.truth))
		failed = 0
		for lo := 0; lo < len(r.truth); lo += batchSize {
			hi := min(lo+batchSize, len(r.truth))
			qs := make([][]float32, 0, batchSize)
			for q := lo; q < hi; q++ {
				qs = append(qs, r.queries.Row(q))
			}
			out, err := clients[0].SearchBatchNProbe(r.ctx, "main", qs, topK, ef, wl.NProbe)
			if err != nil || len(out) != len(qs) {
				failed++
				continue
			}
			for i, nbs := range out {
				for _, nb := range nbs {
					served[lo+i] = append(served[lo+i], nb.ID)
				}
			}
		}
		r.res.addPhase("read-recall", (len(r.truth)+batchSize-1)/batchSize, failed)
		r.res.e2e("recall_at_10", measure{Value: r.recallOf(func(q int) []int32 { return served[q] }), Samples: len(r.truth)})
	}

	// The batch phase: 32 distinct requests of 16 queries on one connection,
	// over and over, the reference kernel on nproc goroutines for 7 ms after
	// every 24 ms of requests. Like its in-process counterpart it runs in two
	// halves, before and after the other phases. Requests twenty times the
	// size of the single ones make both processes' heaps grow, and the first
	// passes run at half speed; a request's best over the passes forgets them.
	sixteen := func(_, i int) bool {
		qs := make([][]float32, batchSize)
		for j := range qs {
			qs[j] = r.queryRow(i%batchRequests*batchSize + j)
		}
		out, err := clients[0].SearchBatchNProbe(r.ctx, "main", qs, topK, ef, wl.NProbe)
		return err == nil && len(out) == batchSize
	}
	var begun time.Time
	var batchPasses [][]float64
	var batchUnits []float64
	batchHalf := func() error {
		var units []float64
		batch, err := r.phase("read-batch", func() ([]sample, error) {
			begun, units = time.Now(), nil
			return runClosedResting(dur, 24*time.Millisecond, batchRequests, sixteen, func() { units = append(units, r.ref.burst(r.nproc, refBurst/4)...) }), nil
		})
		r.spans("client.SearchBatchNProbe", begun, batch)
		batchPasses = append(batchPasses, byKey(values(batch, servedUS), batchRequests)...)
		batchUnits = append(batchUnits, units...)
		return err
	}
	if err := batchHalf(); err != nil {
		return err
	}

	before, self0 := r.statsOf(clients[0]), selfCPU()
	open := func(name string, rate float64) ([]sample, error) {
		s, err := r.phase(name, func() ([]sample, error) {
			begun = time.Now()
			s := runOpen(rate, dur, r.nproc, one)
			return s, gateOpenLoop(s, dur)
		})
		r.spans("client.SearchNProbe "+name, begun, s)
		return s, err
	}

	low, err := open("read-open-low", lowRate)
	if err != nil {
		return err
	}
	if wl.p50Stage() == stageRead {
		r.res.e2e("search_p50_us", percentileOfSegments(segmented(low, dur, minSegments, latencyUS), 0.5))
	}
	high, err := open("read-open-high", highRate)
	if err != nil {
		return err
	}
	r.res.e2e("loaded_p50_us", percentileOfSegments(segmented(high, dur, minSegments, latencyUS), 0.5))

	var ratio float64
	closedCPU0, closedQ0 := r.cpuOf(d), r.statsOf(clients[0])
	closed, err := r.phase("read-closed", func() ([]sample, error) {
		begun = time.Now()
		s := runClosed(dur, r.nproc, one)
		ratio = littlesLawRatio(r.nproc, s, dur)
		if err := gateLittlesLaw(ratio); err != nil {
			return s, err
		}
		return s, gateMeanBelowP99(segmented(s, dur, minSegments, servedUS))
	})
	if err != nil {
		return err
	}
	r.spans("client.SearchNProbe read-closed", begun, closed)
	closedCPU1, closedQ1 := r.cpuOf(d), r.statsOf(clients[0])
	r.res.e2e("closed_qps", ofSegments(throughputSegments(closed, dur, minSegments, 1), len(closed)))

	if err := batchHalf(); err != nil {
		return err
	}
	if wl.served() {
		r.res.e2e("batch_qps", throughputOfBests(batchPasses, batchSize).
			atReference(r.ref.reading(batchUnits, refDepthCoarse), true))
	}

	if r.tr != nil {
		return r.readLayer(readObs{
			d: d, cl: clients[0], one: one, low: low, high: high, closed: closed, dur: dur, littles: ratio,
			before: before, after: r.statsOf(clients[0]), closed0: closedQ0, closed1: closedQ1,
			closedCPU: closedCPU1 - closedCPU0, selfCPU: selfCPU() - self0,
		})
	}
	return nil
}

// statsOf and cpuOf sample the daemon's counters at a phase boundary; only
// a traced run asks.
func (r *runner) statsOf(cl *client.Client) client.IndexStats {
	if r.tr == nil {
		return client.IndexStats{}
	}
	st, err := cl.Stats(r.ctx, "main")
	if err != nil {
		r.note("stats: %v", err)
	}
	return st
}

func (r *runner) cpuOf(d *daemon) time.Duration {
	if r.tr == nil {
		return 0
	}
	cpu, err := procCPU(d.pid())
	if err != nil {
		r.note("daemon cpu: %v", err)
	}
	return cpu
}

// --- serve-mixed stage ------------------------------------------------------

// deleteOrder lists original ids in the order the writer deletes them: the
// exact neighbours of the scored queries first, so a deleted id that came
// back from the dead would show up in the post-restart searches, then the
// remaining ids in a seeded shuffle.
func (r *runner) deleteOrder(rng *rand.Rand) []int32 {
	seen := make(map[int32]bool)
	var order []int32
	for rank := 0; rank < topK; rank++ {
		for _, want := range r.truth {
			if rank < len(want) && !seen[want[rank]] {
				seen[want[rank]] = true
				order = append(order, want[rank])
			}
		}
	}
	for _, i := range rng.Perm(r.data.N) {
		if id := int32(i); !seen[id] {
			order = append(order, id)
		}
	}
	return order
}

func (r *runner) mixedStage() error {
	wl := r.opt.workload
	dur := r.opt.stageDur(stageMixed)
	dataDir := filepath.Join(r.opt.workDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	// The background compactor stays off while the phase is timed: it holds
	// the write lock for 0.2–0.4 s once or twice a run, at instants set by
	// its own ticker, and those two stalls alone moved the insert p99 by
	// ±70% and restart_s (through the length of the WAL left to replay) by
	// ±30% from seed to seed. What a compaction costs is read per layer
	// instead (gkmeans.compact_ms).
	args := []string{"-data", dataDir, "-cache", "4096", "-compact-interval", "0", "-index", "main=" + r.indexPath}
	d, err := r.spawn(args...)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	reader, writer := r.newClient(d), r.newClient(d)

	// Inputs, all drawn from the seed before timing starts.
	rng := rand.New(rand.NewSource(r.opt.seed))
	zipf := rand.NewZipf(rng, zipfS, 1, zipfPool-1)
	reads := make([]int, int(readRate*dur.Seconds()))
	for i := range reads {
		reads[i] = int(zipf.Uint64())
	}
	victims := r.deleteOrder(rng)

	for i := 0; i < zipfPool; i++ { // warm-up: open both connections, fill the cache
		_, e1 := reader.SearchNProbe(r.ctx, "main", r.queryRow(i), topK, ef, wl.NProbe)
		_, e2 := writer.SearchNProbe(r.ctx, "main", r.queryRow(i), topK, ef, wl.NProbe)
		if e1 != nil || e2 != nil {
			return fmt.Errorf("serve-mixed warm-up: %v %v", e1, e2)
		}
	}
	r.res.WarmUps++
	before := r.statsOf(reader)

	// One connection reads, one writes, both open loop. The writer's
	// bookkeeping is touched only by its own goroutine.
	var (
		ackedRows    int
		ackedDeleted = make(map[int32]bool)
		isInsert     = make([]bool, int(writeRate*dur.Seconds()))
		nextPool     int
		nextVictim   int
	)
	write := func(_, i int) bool {
		if i%deleteEvery == 10 { // the first delete comes early, so even the shortest phase has one to verify
			ids := victims[nextVictim : nextVictim+deleteIDs]
			nextVictim += deleteIDs
			resp, err := writer.Delete(r.ctx, "main", ids...)
			if err != nil || resp.Deleted != deleteIDs {
				return false
			}
			for _, id := range ids {
				ackedDeleted[id] = true
			}
			return true
		}
		isInsert[i] = true
		rows := make([][]float32, insertRows)
		for j := range rows {
			rows[j] = r.pool.Row(nextPool)
			nextPool++
		}
		resp, err := writer.Insert(r.ctx, "main", rows)
		if err != nil || resp.Count != insertRows {
			return false
		}
		ackedRows += resp.Count
		return true
	}
	read := func(_, i int) bool {
		nbs, err := reader.SearchNProbe(r.ctx, "main", r.queryRow(reads[i]), topK, ef, wl.NProbe)
		return err == nil && len(nbs) == topK
	}

	var rs, ws []sample
	var begun time.Time
	_, err = r.phase("mixed", func() ([]sample, error) {
		begun = time.Now()
		done := make(chan []sample)
		go func() { done <- runOpen(writeRate, dur, 1, write) }()
		rs = runOpen(readRate, dur, 1, read)
		ws = <-done
		// Each role has one connection, so a flush on the server (it takes
		// both cores) makes the next operations late by construction; only
		// a backlog that never drains voids the phase.
		if err := gateBacklog(rs, dur); err != nil {
			return append(rs, ws...), fmt.Errorf("reader: %w", err)
		}
		return append(rs, ws...), gateBacklog(ws, dur)
	})
	if err != nil {
		return err
	}
	r.spans("client.SearchNProbe mixed", begun, rs)
	r.spans("client.Insert/Delete", begun, ws)

	readSegs := segmented(rs, dur, minSegments, latencyUS)
	if wl.p50Stage() == stageMixed {
		r.res.e2e("search_p50_us", percentileOfSegments(readSegs, 0.5))
	}
	r.res.e2e("search_p90_us", percentileOfSegments(readSegs, 0.9))
	var inserts, deletes []sample
	for i, s := range ws {
		if isInsert[i] {
			inserts = append(inserts, s)
		} else {
			deletes = append(deletes, s)
		}
	}
	insSegs := segmented(inserts, dur, minSegments, latencyUS)
	r.res.e2e("insert_ack_p50_us", percentileOfSegments(insSegs, 0.5))
	r.res.e2e("insert_ack_p90_us", percentileOfSegments(insSegs, 0.9))
	if r.tr != nil {
		r.mixedLayer(reader, before, rs, inserts, deletes)
	}
	reader.Close()

	// A last burst of writes, untimed, so that the log left to replay is
	// worth the name: bulkRows more vectors, eight memtable flushes. With
	// only the timed phase's few hundred inserts in it, two thirds of a
	// restart was the process starting up, and that part follows the state
	// of the host's memory, not the program.
	bulkFailed := 0
	for lo := 0; lo < r.sz.bulk; lo += bulkBatch {
		rows := make([][]float32, bulkBatch)
		for j := range rows {
			rows[j] = r.pool.Row(nextPool)
			nextPool++
		}
		if resp, err := writer.Insert(r.ctx, "main", rows); err != nil || resp.Count != bulkBatch {
			bulkFailed++
			continue
		}
		ackedRows += bulkBatch
	}
	r.res.addPhase("mixed-bulk", r.sz.bulk/bulkBatch, bulkFailed)
	writer.Close()

	// Crash and recover, several times: every acknowledged write must be
	// there after each restart. (SIGKILL leaves the OS page cache intact,
	// so this checks replay, not fsync.)
	want := r.data.N + ackedRows - len(ackedDeleted)
	restartS := make([][]float64, r.sz.restarts)
	var units []float64
	for k := range restartS {
		d.kill()
		units = append(units, r.ref.burst(r.nproc, refBurst)...)
		t := time.Now()
		if d, err = r.spawn(args...); err != nil {
			return fmt.Errorf("restart %d: %w", k+1, err)
		}
		r.tr.record("gkserved.restart", 0, 0, t, time.Now())
		restartS[k] = []float64{d.startup.Seconds()}
		r.timed += d.startup
		r.verifyRecovered(d, k+1, want, ackedDeleted)
	}
	r.res.addPhase("restart", r.sz.restarts, 0)
	r.res.e2e("restart_s", sumOfBests(restartS).atReference(r.ref.reading(units, refDepthCoarse), false))
	return nil
}

// verifyRecovered checks the acknowledged state on a restarted daemon: the
// row count from /stats, and that no acknowledged delete resurfaces.
func (r *runner) verifyRecovered(d *daemon, k, wantRows int, deleted map[int32]bool) {
	cl := r.newClient(d)
	defer cl.Close()
	st, err := cl.Stats(r.ctx, "main")
	r.check(err == nil && st.Live+st.Pending == wantRows,
		"serve-mixed: restart %d: live %d + pending %d == acknowledged %d (err %v)", k, st.Live, st.Pending, wantRows, err)
	const per = 50
	resurrected, failed := 0, 0
	for lo := 0; lo < deletedCheck; lo += per {
		qs := make([][]float32, per)
		for j := range qs {
			qs[j] = r.queryRow(lo + j)
		}
		out, err := cl.SearchBatchNProbe(r.ctx, "main", qs, topK, ef, r.opt.workload.NProbe)
		if err != nil {
			failed++
			continue
		}
		for _, nbs := range out {
			for _, nb := range nbs {
				if deleted[nb.ID] {
					resurrected++
				}
			}
		}
	}
	r.res.addPhase("restart-verify", deletedCheck/per+1, failed)
	r.check(resurrected == 0 && failed == 0,
		"serve-mixed: restart %d: no acknowledged-deleted id in %d searches (%d resurfaced, %d requests failed)", k, deletedCheck, resurrected, failed)
}
