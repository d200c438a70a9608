package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// The reference kernel: how fast is this host right now?
//
// The host this benchmark runs on shares its cores with neighbours, and how
// much they take changes by the minute: the same in-process search loop, on
// the same index, read 71 µs in one run and 117 µs ten minutes earlier. A
// best-of estimator (stats.go) removes what comes and goes within a phase;
// it cannot remove a slow quarter of an hour. So every CPU-bound phase is
// interleaved, a few milliseconds at a time, with a fixed piece of work that
// belongs to the benchmark alone — squared distances between random rows of
// a private matrix, written out here so that no change to the repository
// can touch it — run on as many goroutines as the phase keeps busy. A low
// percentile of that work's wall is the host's speed during the phase, and
// the phase's reading is scaled to what it would have been on a host that
// does one reference unit in refNominalUS: the raw reading × nominal ÷
// measured. A change that makes the program faster moves the reading and
// leaves the reference alone; a slow host moves both alike.
//
// On a fifteen-minute log of all three kinds of phase, cut into windows the
// length of a coverage pass, the spread between windows (IQR ÷ median) was:
// in-process search p50, median of raw samples 27%, best per query 5%,
// scaled 3–5%; Build, median of repetitions 25%, sum of best rounds 16%,
// scaled 5–8%; SearchBatch, best per call 22%, scaled 7–10%.

const (
	refRows, refDim = 10000, 128
	refPairs        = 400 // distances per unit
	// refNominalUS is one unit's wall on this class of machine when the
	// neighbours are quiet. It only fixes the scale: readings come out close
	// to what a stopwatch shows on a quiet host.
	refNominalUS = 60.0
	// How deep into the fast tail of the unit walls the host's speed is
	// read. It matches how deep the phase's own best-of reaches: a query's
	// best of a dozen passes at 100 µs each is close to an undisturbed run,
	// a 40 ms graph round's best of a dozen is not.
	refDepthFine   = 0.05 // one goroutine, per-query bests
	refDepthCoarse = 0.25 // nproc goroutines, parts of tens of milliseconds
	// refBurst is how long the kernel spins between two repetitions of
	// coarse work; between calls of some 25 ms it spins a quarter of that.
	refBurst = 30 * time.Millisecond
)

type reference struct {
	data []float32
	mu   sync.Mutex
	all  []float64 // every unit of the run, for setup_s
	sum  float32
	seed int64
}

func newReference(seed int64) *reference {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, refRows*refDim)
	for i := range data {
		data[i] = rng.Float32() * 255
	}
	return &reference{data: data, seed: seed}
}

func refL2(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	for i := 0; i+3 < len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0 + s1 + s2 + s3
}

// unit is one piece of reference work; it returns its wall in µs and the
// sum it worked out, which the caller must keep alive.
func (ref *reference) unit(rng *rand.Rand) (us float64, sum float32) {
	t := time.Now()
	for i := 0; i < refPairs; i++ {
		a, b := rng.Intn(refRows)*refDim, rng.Intn(refRows)*refDim
		sum += refL2(ref.data[a:a+refDim], ref.data[b:b+refDim])
	}
	return float64(time.Since(t)) / 1e3, sum
}

// spin runs units back to back for d on the calling goroutine and returns
// their walls; at least one unit runs.
func (ref *reference) spin(rng *rand.Rand, d time.Duration) []float64 {
	var walls []float64
	var total float32
	for t := time.Now(); len(walls) == 0 || time.Since(t) < d; {
		us, sum := ref.unit(rng)
		walls = append(walls, us)
		total += sum
	}
	ref.mu.Lock()
	ref.sum += total // keeps the kernel from being optimised away
	ref.mu.Unlock()
	return walls
}

// burst spins on the given number of goroutines at once and returns every
// unit's wall.
func (ref *reference) burst(threads int, d time.Duration) []float64 {
	per := make([][]float64, threads)
	var wg sync.WaitGroup
	for t := range per {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			per[t] = ref.spin(rand.New(rand.NewSource(ref.seed+int64(t))), d)
		}(t)
	}
	wg.Wait()
	var us []float64
	for _, p := range per {
		us = append(us, p...)
	}
	return us
}

// reading is the host's speed over the given unit walls: their depth-th
// percentile, in µs per unit. The walls also join the run's pool.
func (ref *reference) reading(us []float64, depth float64) float64 {
	ref.mu.Lock()
	ref.all = append(ref.all, us...)
	ref.mu.Unlock()
	return quantile(sorted(us), depth)
}

// overall is the reading over every unit of the run so far.
func (ref *reference) overall() float64 {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	return quantile(sorted(ref.all), refDepthCoarse)
}

// atReference scales a CPU-bound reading to the reference host: a time is
// multiplied by nominal ÷ measured, a rate divided by it. The raw reading
// and the host's speed stay in the result file.
func (m measure) atReference(refUS float64, rate bool) measure {
	m.Raw, m.RefUS = m.Value, refUS
	k := refNominalUS / refUS
	if rate {
		k = 1 / k
	}
	if math.IsNaN(k) || math.IsInf(k, 0) {
		m.Value = math.NaN()
		return m
	}
	m.Value *= k
	for i := range m.Segments {
		m.Segments[i] *= k
	}
	m.IQR *= k
	return m
}
