package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN, not a plausible number")
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{19: 0, 20: 0.5, 99: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIQRMatchesPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr(1..10) = %v, want 5.5", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if got := iqr([]float64{3, 1, 4, 1, 5}); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("iqr(3,1,4,1,5) = %v, want 3.5", got)
	}
}

// synthetic builds closed-loop samples at 1 kHz whose latency in µs is
// lat(i).
func synthetic(n int, lat func(i int) float64) ([]sample, time.Duration) {
	s := make([]sample, n)
	for i := range s {
		at := time.Duration(i) * time.Millisecond
		s[i] = sample{due: at, start: at, end: at + time.Duration(lat(i)*1e3)}
	}
	return s, time.Duration(n) * time.Millisecond
}

func TestMedianOfSegmentsAbsorbsOneStall(t *testing.T) {
	// 2 ms everywhere, and a single 500 ms stall in the third segment.
	samples, dur := synthetic(5000, func(i int) float64 {
		if i == 2500 {
			return 500000
		}
		return 2000
	})
	segs := segmented(samples, dur, minSegments, servedUS)
	for p, name := range map[float64]string{0.5: "p50", 0.99: "p99"} {
		m := percentileOfSegments(segs, p)
		if m.Value != 2000 || len(m.Segments) != minSegments {
			t.Errorf("%s = %+v, want 2000 from %d segments: one stall must not move a median of segments", name, m, minSegments)
		}
	}
	if err := gateMeanBelowP99(segs); err != nil {
		t.Errorf("one stalled segment must not void the phase: %v", err)
	}

	// The same stall in two segments is a stalled phase, not an outlier.
	samples, dur = synthetic(5000, func(i int) float64 {
		if i == 500 || i == 2500 {
			return 500000
		}
		return 2000
	})
	if err := gateMeanBelowP99(segmented(samples, dur, minSegments, servedUS)); err == nil {
		t.Error("mean above p99 in two segments must void the phase")
	}
}

func TestBimodalHitMissMix(t *testing.T) {
	// Four cache hits at 300 µs, then one miss at 2900 µs, repeating: the
	// median sits on the hit path and the p90 on the miss path.
	samples, dur := synthetic(5000, func(i int) float64 {
		if i%5 == 4 {
			return 2900
		}
		return 300
	})
	segs := segmented(samples, dur, minSegments, servedUS)
	if m := percentileOfSegments(segs, 0.5); m.Value != 300 {
		t.Errorf("p50 = %v, want the hit path's 300", m.Value)
	}
	if m := percentileOfSegments(segs, 0.9); m.Value != 2900 {
		t.Errorf("p90 = %v, want the miss path's 2900", m.Value)
	}
}

func TestPercentileFallsBackToWholePhase(t *testing.T) {
	// 2000 samples support the p99 over the whole phase, though not in
	// each segment of 400.
	samples, dur := synthetic(2000, func(i int) float64 { return float64(i) })
	m := percentileOfSegments(segmented(samples, dur, minSegments, servedUS), 0.99)
	if m.Value != 1979 || m.Segments != nil || !strings.Contains(m.Note, "whole phase: 20 samples beyond") {
		t.Errorf("got %+v, want the whole-phase p99 1979 with 20 samples beyond", m)
	}
	// 500 samples leave five beyond p99 — too few anywhere — but every
	// segment of 100 supports a p90: that is what is read, per segment,
	// and the note says so.
	samples, dur = synthetic(500, func(i int) float64 { return float64(i) })
	m = percentileOfSegments(segmented(samples, dur, minSegments, servedUS), 0.99)
	if m.Value != 289 || len(m.Segments) != minSegments || !strings.Contains(m.Note, "p90 read") {
		t.Errorf("got %+v, want the median 289 of five per-segment p90s", m)
	}
	// Ten samples a segment support nothing but a whole-phase median.
	samples, dur = synthetic(50, func(i int) float64 { return float64(i) })
	m = percentileOfSegments(segmented(samples, dur, minSegments, servedUS), 0.9)
	if m.Value != 24 || !strings.Contains(m.Note, "p50 read over the whole phase") {
		t.Errorf("got %+v, want the whole-phase median 24", m)
	}
	empty := percentileOfSegments(make([][]float64, minSegments), 0.5)
	if !math.IsNaN(empty.Value) {
		t.Errorf("a phase without samples must read NaN, got %v", empty.Value)
	}
}

func TestSumOfBests(t *testing.T) {
	// Three repetitions of two parts; the host slowed a different part each
	// time. The first part never ran faster than 1, the second than 2.
	m := sumOfBests([][]float64{{1, 5}, {3, 2}, {2, 4}})
	if m.Value != 3 || m.Samples != 3 {
		t.Errorf("got %+v, want 1 + 2 from 3 repetitions", m)
	}
	if want := []float64{6, 5, 6}; len(m.Segments) != 3 || m.Segments[0] != want[0] || m.Segments[1] != want[1] || m.Segments[2] != want[2] {
		t.Errorf("segments %v, want the repetitions' totals %v", m.Segments, want)
	}
	// One part per repetition is a plain best-of.
	if m := sumOfBests([][]float64{{0.13}, {0.11}, {0.19}}); m.Value != 0.11 || !strings.Contains(m.Note, "best of 3") {
		t.Errorf("got %+v, want the best of three", m)
	}
	// Repetitions that were not cut alike cannot be mixed part by part.
	if m := sumOfBests([][]float64{{1, 5}, {2, 1, 1}}); m.Value != 4 || !strings.Contains(m.Note, "not cut alike") {
		t.Errorf("got %+v, want the best whole repetition, 4, and a note", m)
	}
	if m := sumOfBests(nil); !math.IsNaN(m.Value) {
		t.Errorf("no repetitions must read NaN, got %v", m.Value)
	}
}

func TestPercentileOfBests(t *testing.T) {
	// 2000 queries cycled 6 times plus a partial pass. Query q costs 100 µs,
	// the hardest hundredth of them 300 µs; on every pass the host adds
	// 400 µs to a different tenth of the queries.
	const n, whole = 2000, 6
	vals := make([]float64, whole*n+500)
	for i := range vals {
		q, pass := i%n, i/n
		vals[i] = 100
		if q >= n-n/100 {
			vals[i] = 300
		}
		if q%10 == pass {
			vals[i] += 400
		}
	}
	passes := byKey(vals, n)
	if len(passes) != whole {
		t.Fatalf("%d passes, want %d whole ones with the partial pass dropped", len(passes), whole)
	}
	p50, p99 := percentileOfBests(passes, 0.5), percentileOfBests(passes, 0.99)
	if p50.Value != 100 {
		t.Errorf("p50 = %v, want the queries' own 100", p50.Value)
	}
	if p99.Value != 100 || quantile(sorted(bestPerKey(passes)), 0.995) != 300 {
		t.Errorf("p99 = %v: the hard hundredth starts just beyond it and must read 300 there", p99.Value)
	}
	// Each single pass read the host, not the program: its p99 is a slowed query.
	for k, v := range p99.Segments {
		if v < 500 {
			t.Errorf("pass %d alone read a p99 of %v, expected a host-slowed one", k, v)
		}
	}
	if p50.Samples != whole*n {
		t.Errorf("samples = %d, want %d", p50.Samples, whole*n)
	}
	// 256 inputs leave two beyond the p99: the p90 is read, and the note says so.
	small := percentileOfBests(byKey(vals[:3*256], 256), 0.99)
	if !strings.Contains(small.Note, "p90 read") {
		t.Errorf("note %q, want the fallback to p90 named", small.Note)
	}
	if m := percentileOfBests(byKey(vals[:100], n), 0.5); !math.IsNaN(m.Value) {
		t.Errorf("less than one whole pass must read NaN, got %v", m.Value)
	}
}

func TestThroughputOfBests(t *testing.T) {
	// Four requests of 512 queries; 25 ms each at best, and on each of three
	// passes the host doubles one of them.
	var us []float64
	for pass := 0; pass < 3; pass++ {
		for req := 0; req < 4; req++ {
			v := 25000.0
			if req == pass {
				v *= 2
			}
			us = append(us, v)
		}
	}
	m := throughputOfBests(byKey(us, 4), 512)
	if math.Abs(m.Value-2048/0.1) > 1e-6 {
		t.Errorf("%v queries/s, want 2048 in 4 × 25 ms", m.Value)
	}
	for k, v := range m.Segments {
		if math.Abs(v-2048/0.125) > 1e-6 {
			t.Errorf("pass %d alone: %v queries/s, want 2048 in 125 ms", k, v)
		}
	}
}

func TestAtReference(t *testing.T) {
	// The host did a reference unit in 90 µs where the reference host
	// does it in 60: a time of 3 s is 2 s there, and a rate of 1000/s is 1500/s.
	slow := refNominalUS * 1.5
	tm := measure{Value: 3, Segments: []float64{3, 6}, IQR: 3}.atReference(slow, false)
	if math.Abs(tm.Value-2) > 1e-12 || tm.Raw != 3 || tm.RefUS != slow || math.Abs(tm.Segments[1]-4) > 1e-12 || math.Abs(tm.IQR-2) > 1e-12 {
		t.Errorf("time: got %+v, want 2 with raw 3, segments and IQR scaled alike", tm)
	}
	if rate := (measure{Value: 1000}).atReference(slow, true); math.Abs(rate.Value-1500) > 1e-9 {
		t.Errorf("rate: got %v, want 1500", rate.Value)
	}
	if m := (measure{Value: 3}).atReference(0, false); !math.IsNaN(m.Value) {
		t.Errorf("no reading of the host must not yield a number, got %v", m.Value)
	}
	// The kernel itself: a burst on two goroutines yields units from both,
	// and a reading is a low percentile of their walls.
	ref := newReference(1)
	us := ref.burst(2, 2*time.Millisecond)
	if len(us) < 2 {
		t.Fatalf("%d units from two goroutines, want at least one each", len(us))
	}
	if got := ref.reading(us, refDepthCoarse); got <= 0 || got > sorted(us)[len(us)-1] || ref.overall() != got {
		t.Errorf("reading %v of units %v (overall %v)", got, us, ref.overall())
	}
}

func TestClosedLoopWithRests(t *testing.T) {
	rests := 0
	samples := runClosedResting(60*time.Millisecond, 5*time.Millisecond, 0,
		func(_, _ int) bool { time.Sleep(time.Millisecond); return true },
		func() { rests++; time.Sleep(3 * time.Millisecond) })
	if rests < 3 || len(samples) < 10 {
		t.Fatalf("%d rests, %d operations in 60 ms", rests, len(samples))
	}
	// A rest takes its part of the phase but of no operation's time: it
	// lies in the gap between two operations.
	gaps := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].start < samples[i-1].end {
			t.Errorf("operation %d started before %d ended", i, i-1)
		}
		if samples[i].start-samples[i-1].end >= 3*time.Millisecond {
			gaps++
		}
	}
	if gaps < rests {
		t.Errorf("%d gaps of a rest's length between operations, %d rests", gaps, rests)
	}
	// A phase too short for one cycle over its inputs runs on until it has one.
	if n := len(runClosedResting(time.Microsecond, time.Hour, 32, func(_, _ int) bool { return true }, func() {})); n != 32 {
		t.Errorf("%d operations, want the 32 of one whole cycle", n)
	}
}

func TestFitLine(t *testing.T) {
	// 40 µs fixed plus 55 µs per probed shard.
	a, b := fitLine([]float64{1, 2, 4}, []float64{95, 150, 260})
	if math.Abs(a-40) > 1e-9 || math.Abs(b-55) > 1e-9 {
		t.Errorf("fitLine = %v + %v·x, want 40 + 55·x", a, b)
	}
	if a, b := fitLine([]float64{2, 2}, []float64{10, 20}); a != 15 || b != 0 {
		t.Errorf("degenerate fit = %v, %v; want the mean and no slope", a, b)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// 1000/s from one goroutine; the tenth operation stalls 30 ms. The
	// operations queued behind it are sent late, and their latency is
	// counted from when they were due, so the stall shows in all of them.
	const stallAt = 10
	samples := runOpen(1000, 100*time.Millisecond, 1, func(_, i int) bool {
		if i == stallAt {
			time.Sleep(30 * time.Millisecond)
		}
		return true
	})
	if len(samples) != 100 {
		t.Fatalf("%d operations, want rate × duration = 100", len(samples))
	}
	for i, s := range samples {
		if want := time.Duration(i) * time.Millisecond; s.due != want {
			t.Fatalf("operation %d due at %v, want %v: the schedule must be absolute", i, s.due, want)
		}
	}
	next := samples[stallAt+1]
	if late := next.start - next.due; late < 20*time.Millisecond {
		t.Errorf("the operation behind the stall started %v late, want ≈29 ms", late)
	}
	if latencyUS(next) < 20000 || servedUS(next) > 10000 {
		t.Errorf("behind the stall: %v µs from due, %v µs from send; the wait must count from due only", latencyUS(next), servedUS(next))
	}
}

func TestClosedLoopAndLittlesLaw(t *testing.T) {
	// Two clients spending all their time in 1 ms operations: ratio 1.
	busy := runClosed(60*time.Millisecond, 2, func(_, _ int) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	ratio := littlesLawRatio(2, busy, 60*time.Millisecond)
	if err := gateLittlesLaw(ratio); err != nil {
		t.Errorf("a saturated closed loop must pass: %v", err)
	}
	// A loop that idles between operations reports a latency its
	// throughput contradicts: half the time in requests, ratio 2.
	idle, dur := synthetic(100, func(int) float64 { return 500 })
	if err := gateLittlesLaw(littlesLawRatio(1, idle, dur)); err == nil {
		t.Error("a loop that is idle half the time must fail Little's law")
	}
	if err := gateLittlesLaw(math.NaN()); err == nil {
		t.Error("no samples must fail, not pass")
	}
}

func TestOpenLoopGates(t *testing.T) {
	// open builds open-loop samples at 1 kHz, 2 ms each, late by late(i) µs.
	open := func(late func(i int) float64) ([]sample, time.Duration) {
		s := make([]sample, 1000)
		for i := range s {
			due := time.Duration(i) * time.Millisecond
			start := due + time.Duration(late(i)*1e3)
			s[i] = sample{due: due, start: start, end: start + 2*time.Millisecond}
		}
		return s, time.Second
	}
	healthy, dur := open(func(int) float64 { return 100 })
	if err := gateOpenLoop(healthy, dur); err != nil {
		t.Errorf("a generator 100 µs late must pass: %v", err)
	}
	// 2% of the sends 60 ms late is a hypervisor hiccup, not a generator
	// that lost its schedule; 20% is.
	hiccups, dur := open(func(i int) float64 {
		if i%50 == 0 {
			return 60000
		}
		return 100
	})
	if err := gateOpenLoop(hiccups, dur); err != nil {
		t.Errorf("2%% of sends late must pass: %v", err)
	}
	lost, dur := open(func(i int) float64 {
		if i%5 == 0 {
			return 60000
		}
		return 100
	})
	if err := gateOpenLoop(lost, dur); err == nil || !strings.Contains(err.Error(), "lateness p90") {
		t.Errorf("lateness p90 of 60 ms must void the phase, got %v", err)
	}
	// Lateness growing to 20 ms by the end: the queue never drained.
	growing, dur := open(func(i int) float64 { return float64(i) * 20 })
	if err := gateOpenLoop(growing, dur); err == nil || !strings.Contains(err.Error(), "backlog") {
		t.Errorf("a growing backlog must void the phase, got %v", err)
	}
	if err := gateOpenLoop(nil, dur); err == nil {
		t.Error("an open loop that completed nothing must be void")
	}
}

func TestThroughputSegments(t *testing.T) {
	samples, dur := synthetic(1000, func(int) float64 { return 100 })
	for i, qps := range throughputSegments(samples, dur, minSegments, 16) {
		if qps != 16000 {
			t.Errorf("segment %d: %v queries/s, want 1000 requests/s × 16", i, qps)
		}
	}
}

func TestResultGates(t *testing.T) {
	full := func() *result {
		r := &result{Correct: true, WarmUps: int(numStages), EndToEnd: map[string]measure{}, PerLayer: map[string]measure{}}
		for _, m := range endToEnd {
			r.e2e(m.Name, measure{Value: 1})
		}
		return r
	}
	if err := full().finish(); err != nil {
		t.Fatalf("a complete result must pass: %v", err)
	}
	cold := full()
	cold.WarmUps--
	if err := cold.finish(); err == nil || !strings.Contains(err.Error(), "warm-up") {
		t.Errorf("a stage that never warmed up must fail the run, got %v", err)
	}
	zero := full()
	zero.e2e("build_s", measure{})
	if err := zero.finish(); err == nil || !strings.Contains(err.Error(), "build_s is zero") {
		t.Errorf("a zero-filled section must fail the run, got %v", err)
	}
	nan := full()
	nan.e2e("search_p99_us", measure{Value: math.NaN()})
	if err := nan.finish(); err == nil {
		t.Error("a NaN must fail the run")
	}
	missing := full()
	delete(missing.EndToEnd, "restart_s")
	if err := missing.finish(); err == nil || !strings.Contains(err.Error(), "restart_s was not measured") {
		t.Errorf("an absent metric must fail the run, got %v", err)
	}
	traced := full()
	traced.Trace = true
	if err := traced.finish(); err == nil {
		t.Error("a traced result without its per-layer section must fail")
	}
	failed := full()
	failed.addPhase("read-closed", 100, 1)
	if err := failed.finish(); err != nil || failed.Correct {
		t.Errorf("a failed operation must make the run incorrect (err %v, correct %v)", err, failed.Correct)
	}
}
