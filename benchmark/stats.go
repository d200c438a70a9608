package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minSegments is how many equal consecutive segments every timed phase is
// cut into; the reported value of a timing metric is the median of the
// per-segment values, so one stall landing in one segment moves nothing.
const minSegments = 5

// beyondNeeded is how many samples must lie beyond a percentile, in each
// segment, before that percentile is read per segment.
const beyondNeeded = 10

// quantile returns the nearest-rank p-quantile of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// samplesBeyond is how many of n samples rank strictly above the
// nearest-rank p-quantile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// highestPercentile picks the highest of p50/p90/p99/p99.9 that has at
// least beyondNeeded samples beyond it among n samples, or 0 if none has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if samplesBeyond(n, p) >= beyondNeeded {
			best = p
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// a spread worked out from a result file matches the driver's.
func iqr(xs []float64) float64 {
	s := sorted(xs)
	if len(s) < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}

// sample is one operation of a timed phase; all three instants are offsets
// from the start of the phase. An open-loop operation is timed from due, a
// closed-loop one from start.
type sample struct {
	due, start, end time.Duration
	failed          bool
}

// segmented cuts the values of the samples that were due inside [0, dur)
// into k equal consecutive time segments.
func segmented(samples []sample, dur time.Duration, k int, value func(sample) float64) [][]float64 {
	segs := make([][]float64, k)
	for _, s := range samples {
		if s.failed {
			continue
		}
		i := int(int64(s.due) * int64(k) / int64(dur))
		if i < 0 || i >= k {
			continue
		}
		segs[i] = append(segs[i], value(s))
	}
	return segs
}

func flatten(segs [][]float64) []float64 {
	var all []float64
	for _, s := range segs {
		all = append(all, s...)
	}
	return all
}

func latencyUS(s sample) float64  { return float64(s.end-s.due) / 1e3 }
func servedUS(s sample) float64   { return float64(s.end-s.start) / 1e3 }
func latenessUS(s sample) float64 { return float64(s.start-s.due) / 1e3 }

// measure is one reported number with the evidence behind it.
type measure struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Raw      float64   `json:"raw,omitempty"`    // a CPU-bound metric before it was scaled to the reference host
	RefUS    float64   `json:"ref_us,omitempty"` // the reference kernel's reading in the same phase, µs per unit
	Samples  int       `json:"samples"`
	Segments []float64 `json:"segments,omitempty"` // per-segment (or per-repetition) values
	IQR      float64   `json:"iqr,omitempty"`      // of Segments
	Note     string    `json:"note,omitempty"`
}

// ofSegments reports the median of per-segment values with their IQR.
func ofSegments(vals []float64, samples int) measure {
	return measure{Value: median(vals), Samples: samples, Segments: vals, IQR: iqr(vals)}
}

// --- best of repetitions ------------------------------------------------------
//
// A CPU-bound timing on a shared host is the program's own time plus what
// the neighbours took, and here the second term moves by tens of per cent
// from one second to the next and from one minute to the next: the median
// of a 4 s in-process search loop spread 13–17% between windows of one
// five-minute log, and no run length the contract allows averages that out.
// The smallest wall the same work ever took is the program's own time, and
// it repeats: 2% on that same log. So work that can be repeated is repeated,
// in pieces as small as can be timed from outside, and a CPU-bound metric
// is built from each piece's best time. The finer the pieces the better: a
// quiet 100 µs comes by every pass, a quiet 2 s almost never. Latencies that
// timers, fsync or a schedule dominate stay medians of segments.

// sumOfBests takes the walls of the same work repeated — reps[i][j] is
// part j of repetition i, every repetition cut into the same parts — and
// reports the sum over the parts of each part's smallest wall: the time of
// one repetition in which every part ran as fast as it ever did. The
// per-repetition totals and their IQR go into the result file as the
// evidence of what the host added.
func sumOfBests(reps [][]float64) measure {
	totals := make([]float64, len(reps))
	sameParts := len(reps) > 0
	for i, parts := range reps {
		for _, v := range parts {
			totals[i] += v
		}
		sameParts = sameParts && len(parts) == len(reps[0])
	}
	m := measure{Samples: len(reps), Segments: totals, IQR: iqr(totals)}
	switch {
	case len(reps) == 0:
		m.Value, m.Note = math.NaN(), "no repetitions"
	case !sameParts:
		m.Value, m.Note = sorted(totals)[0], "best whole repetition: the repetitions were not cut alike"
	default:
		for j := range reps[0] {
			best := reps[0][j]
			for _, parts := range reps[1:] {
				best = math.Min(best, parts[j])
			}
			m.Value += best
		}
		m.Note = fmt.Sprintf("best of %d repetitions", len(reps))
		if n := len(reps[0]); n > 1 {
			m.Note = fmt.Sprintf("%d parts, each at its best of %d repetitions", n, len(reps))
		}
	}
	return m
}

// byKey regroups values issued in a cycle over n keys — the i-th value
// belongs to key i%n — into whole passes: passes[k][j] is key j on pass k.
// A last, partial pass is dropped, so every key is tried equally often.
func byKey(vals []float64, n int) (passes [][]float64) {
	for lo := 0; lo+n <= len(vals); lo += n {
		passes = append(passes, vals[lo:lo+n])
	}
	return passes
}

// bestPerKey is each key's smallest value over the passes.
func bestPerKey(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	best := append([]float64(nil), passes[0]...)
	for _, pass := range passes[1:] {
		for j, v := range pass {
			best[j] = math.Min(best[j], v)
		}
	}
	return best
}

// percentileOfBests reports percentile p across distinct inputs of each
// input's best value over its passes: the p99 is then the hardest hundredth
// of the inputs, not the unluckiest hundredth of the moments. The
// ten-samples-beyond rule counts inputs here.
func percentileOfBests(passes [][]float64, p float64) measure {
	best := bestPerKey(passes)
	if len(best) == 0 {
		return measure{Value: math.NaN(), Note: "not one whole pass over the inputs"}
	}
	m := measure{Samples: len(passes) * len(best)}
	if samplesBeyond(len(best), p) < beyondNeeded {
		q := math.Max(highestPercentile(len(best)), 0.5)
		m.Note = fmt.Sprintf("p%g read: too few inputs for p%g; ", q*100, p*100)
		p = q
	}
	m.Value = quantile(sorted(best), p)
	m.Note += fmt.Sprintf("across %d inputs, each at its best of %d passes", len(best), len(passes))
	// What each single pass read: the spread the best-of removes.
	for _, pass := range passes {
		m.Segments = append(m.Segments, quantile(sorted(pass), p))
	}
	m.IQR = iqr(m.Segments)
	return m
}

// throughputOfBests reports items per second through a cycle of requests,
// each request timed at its best: items in one cycle ÷ the sum of the
// requests' best walls (given in µs).
func throughputOfBests(passes [][]float64, itemsPerRequest int) measure {
	if len(passes) == 0 {
		return measure{Value: math.NaN(), Note: "not one whole pass over the requests"}
	}
	items := float64(len(passes[0]) * itemsPerRequest)
	perSecond := func(us []float64) float64 {
		sum := 0.0
		for _, v := range us {
			sum += v
		}
		return items / (sum / 1e6)
	}
	m := measure{Value: perSecond(bestPerKey(passes)), Samples: len(passes) * len(passes[0]) * itemsPerRequest,
		Note: fmt.Sprintf("%d requests, each at its best of %d passes", len(passes[0]), len(passes))}
	for _, pass := range passes {
		m.Segments = append(m.Segments, perSecond(pass))
	}
	m.IQR = iqr(m.Segments)
	return m
}

// values lists value(s) of every sample in issue order; a failed operation
// keeps its place, so the cycle of keys stays aligned (and fails the run).
func values(samples []sample, value func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = value(s)
	}
	return out
}

// percentileOfSegments reports percentile p of a phase cut into segments.
// A percentile is trusted only with beyondNeeded samples beyond it, so the
// reading falls back in this order, and the note says which was taken:
//
//  1. p in every segment, median of the readings — one stall in one
//     segment moves nothing;
//  2. p once over the whole phase, when the phase supports it but its
//     segments do not (the focus workload's insert p99: 1100 inserts);
//  3. the highest of p50/p90/p99/p99.9 below p that every segment does
//     support, median of the readings (a coverage pass reports the p90 of
//     its 550 inserts under the name of the p99);
//  4. p50 over the whole phase.
//
// A phase's sample count is fixed by its rate and length, so a given
// metric on a given workload always takes the same branch.
func percentileOfSegments(segs [][]float64, p float64) measure {
	all := flatten(segs)
	smallest := math.MaxInt
	for _, s := range segs {
		smallest = min(smallest, len(s))
	}
	if len(all) == 0 {
		return measure{Value: math.NaN(), Note: "no samples"}
	}
	perSegment := func(q float64) measure {
		vals := make([]float64, len(segs))
		for i, s := range segs {
			vals[i] = quantile(sorted(s), q)
		}
		return ofSegments(vals, len(all))
	}
	if samplesBeyond(smallest, p) >= beyondNeeded {
		return perSegment(p)
	}
	if beyond := samplesBeyond(len(all), p); beyond >= beyondNeeded {
		return measure{Value: quantile(sorted(all), p), Samples: len(all),
			Note: fmt.Sprintf("read over the whole phase: %d samples beyond", beyond)}
	}
	if q := highestPercentile(smallest); q > 0 {
		m := perSegment(min(q, p))
		m.Note = fmt.Sprintf("p%g read: too few samples for p%g", min(q, p)*100, p*100)
		return m
	}
	return measure{Value: quantile(sorted(all), 0.5), Samples: len(all),
		Note: fmt.Sprintf("p50 read over the whole phase: too few samples for p%g", p*100)}
}

// fitLine is the least-squares line y = a + b·x.
func fitLine(xs, ys []float64) (a, b float64) {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return my, 0
	}
	b = sxy / sxx
	return my - b*mx, b
}

// --- sanity gates ---------------------------------------------------------
//
// Each gate returns an error naming the defect; a phase that trips one is
// void: its samples are discarded and it is run again (see phase in run.go).

// gateMeanBelowP99 catches a cold or stalled phase: a mean above the p99
// means a few huge samples carry the average. One such segment is what
// median-of-segments exists to absorb; two or more void the phase.
func gateMeanBelowP99(segs [][]float64) error {
	bad := 0
	for _, s := range segs {
		if samplesBeyond(len(s), 0.99) < 1 {
			continue // p99 is the maximum here; the comparison says nothing
		}
		if mean(s) > quantile(sorted(s), 0.99) {
			bad++
		}
	}
	if bad > 1 {
		return fmt.Errorf("mean above p99 in %d of %d segments (cold or stalled phase)", bad, len(segs))
	}
	return nil
}

// littlesLawRatio is clients ÷ (throughput × mean latency) of a closed
// loop; it is 1 when every client spent the whole phase inside requests.
func littlesLawRatio(clients int, samples []sample, dur time.Duration) float64 {
	var busy time.Duration
	n := 0
	for _, s := range samples {
		if !s.failed {
			busy += s.end - s.start
			n++
		}
	}
	if n == 0 || busy == 0 {
		return math.NaN()
	}
	qps := float64(n) / dur.Seconds()
	meanLat := busy.Seconds() / float64(n)
	return float64(clients) / (qps * meanLat)
}

func gateLittlesLaw(ratio float64) error {
	if math.IsNaN(ratio) || ratio < 0.9 || ratio > 1.1 {
		return fmt.Errorf("Little's law ratio %.3f outside 1 ± 0.1: the loop's latency and throughput disagree", ratio)
	}
	return nil
}

// gateOpenLoop voids an open-loop phase whose generator could not keep its
// schedule: lateness p90 above ten times the median latency (or 25 ms,
// whichever is larger: on a cache-hit path ten medians is a few hundred
// microseconds, less than one scheduler hiccup), or a backlog still growing
// when the phase ended. The p90, not the p99: on a shared VM the hypervisor
// takes a vCPU away for 50–100 ms every few seconds, which puts the p99 of
// any schedule past the limit without the generator being at fault, and a
// median-of-segments metric does not feel 1% of late sends anyway.
func gateOpenLoop(samples []sample, dur time.Duration) error {
	var late, lat []float64
	for _, s := range samples {
		if !s.failed {
			late = append(late, latenessUS(s))
			lat = append(lat, latencyUS(s))
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("open loop completed nothing")
	}
	limit := math.Max(10*quantile(sorted(lat), 0.5), 25000)
	if l90 := quantile(sorted(late), 0.9); l90 > limit {
		return fmt.Errorf("generator lateness p90 %.0f µs exceeds %.0f µs", l90, limit)
	}
	return gateBacklog(samples, dur)
}

// gateBacklog voids an open-loop phase that ended with its queue still
// growing: the last segment's median lateness above 5 ms and far above the
// first segment's.
func gateBacklog(samples []sample, dur time.Duration) error {
	segs := segmented(samples, dur, minSegments, latenessUS)
	first, last := segs[0], segs[len(segs)-1]
	if len(first) == 0 || len(last) == 0 {
		return nil
	}
	if f, l := median(first), median(last); l > 5000 && l > 3*f {
		return fmt.Errorf("backlog still growing at phase end: median lateness %.0f µs in the last segment, %.0f µs in the first", l, f)
	}
	return nil
}

// --- load loops -----------------------------------------------------------

// runOpen issues n = rate × dur operations on an absolute schedule, the
// i-th due at i/rate after the start, from the given number of goroutines.
// A goroutine that finds the next operation already due sends it at once:
// its latency is timed from when it was due, so a stall is charged to every
// request it delayed. op reports success.
func runOpen(rate float64, dur time.Duration, workers int, op func(worker, i int) bool) []sample {
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				ok := op(w, i)
				samples[i] = sample{due: due, start: start, end: time.Since(t0), failed: !ok}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// runClosed runs op back to back from every client for dur; an operation's
// due time is its start.
func runClosed(dur time.Duration, clients int, op func(client, i int) bool) []sample {
	per := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				start := time.Since(t0)
				if start >= dur {
					return
				}
				ok := op(c, i)
				per[c] = append(per[c], sample{due: start, start: start, end: time.Since(t0), failed: !ok})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// runClosedResting is runClosed for one client that, whenever work has
// passed since it last did, stops between two operations to call rest —
// which spins the reference kernel (reference.go). The rests take their part
// of dur but of no operation's time. The loop runs on past dur until
// atLeast operations are done: one whole cycle over the inputs, without
// which a best per input cannot be read (a machine ten times slower than
// expected, such as one under the race detector, gets there late, not never).
func runClosedResting(dur, work time.Duration, atLeast int, op func(client, i int) bool, rest func()) []sample {
	var all []sample
	t0 := time.Now()
	next := work
	for i := 0; ; i++ {
		start := time.Since(t0)
		if start >= dur && i >= atLeast {
			return all
		}
		if start >= next {
			rest()
			start = time.Since(t0)
			next = start + work
		}
		ok := op(0, i)
		all = append(all, sample{due: start, start: start, end: time.Since(t0), failed: !ok})
	}
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// throughputSegments is completed operations per second in each segment,
// weighting every operation by weight (queries per request).
func throughputSegments(samples []sample, dur time.Duration, k, weight int) []float64 {
	counts := segmented(samples, dur, k, func(sample) float64 { return 1 })
	out := make([]float64, k)
	for i, c := range counts {
		out[i] = float64(len(c)*weight) / (dur.Seconds() / float64(k))
	}
	return out
}

// timerOvershootUS is how far time.Sleep(1ms) overshoots on this machine,
// median of 200: it is added to every open-loop lateness and stretches the
// server's 1 ms coalescing window alike.
func timerOvershootUS() float64 {
	over := make([]float64, 200)
	for i := range over {
		t := time.Now()
		time.Sleep(time.Millisecond)
		over[i] = float64(time.Since(t)-time.Millisecond) / 1e3
	}
	return median(over)
}
