// Package splitmix provides a tiny deterministic PRNG (splitmix64,
// Steele et al., OOPSLA 2014). Unlike math/rand's default Source (~5 KB of
// state), a Stream is a single word, so the parallel graph builders can
// derive one independent stream per node from (seed, salts…) for free.
// That per-node derivation is what makes their output identical for every
// worker count: randomness depends only on the node identity, never on
// which goroutine happens to process it.
//
// The generator is not cryptographic and Intn uses modulo reduction (bias
// is ~n/2^64, irrelevant for sampling neighbours), but it passes the
// statistical bar the builders need: decorrelated streams and uniform
// draws.
package splitmix

import "math"

const (
	gamma = 0x9e3779b97f4a7c15 // golden-ratio increment of splitmix64
	mult1 = 0xbf58476d1ce4e5b9
	mult2 = 0x94d049bb133111eb
)

// mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= mult1
	z ^= z >> 27
	z *= mult2
	z ^= z >> 31
	return z
}

// Stream is one deterministic random stream. The zero value is a valid
// stream seeded at 0; use New to derive decorrelated streams.
type Stream struct {
	state uint64
}

// New derives a stream from a base seed and any number of salts (node id,
// round number, phase tag, …). Two calls with the same arguments yield
// identical streams; changing any argument yields a statistically
// independent one.
func New(seed int64, salts ...uint64) Stream {
	s := mix(uint64(seed) + gamma)
	for _, x := range salts {
		s = mix(s ^ (x + gamma))
	}
	return Stream{state: s}
}

// Uint64 returns the next 64 uniform random bits.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	return mix(s.state)
}

// Skip advances the stream past n draws in O(1): afterwards it yields what
// it would have after n calls of Uint64 (or of Intn, Int63 or Float64,
// which draw one each). Work that knows how many draws came before it can
// so start at its own position instead of waiting for its predecessors.
func (s *Stream) Skip(n uint64) {
	s.state += n * gamma
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("splitmix: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Shuffle performs a Fisher-Yates shuffle over n elements via swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Int63 returns a uniform non-negative int64 — the shape rand.Source
// exposes, kept for deriving child seeds from a parent stream.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Perm returns a uniform random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p)): what
// Perm(len(p)) returns, from the same len(p)−1 draws, in the caller's
// buffer.
func (s *Stream) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// NormFloat64 returns a standard-normal draw via the Box-Muller transform.
// Unlike math/rand's ziggurat it needs no precomputed tables and its output
// is a pure function of the stream state, which keeps cross-version
// reproducibility trivial; the two uniforms per draw are irrelevant next to
// the vector arithmetic the callers (random projections) do per draw.
func (s *Stream) NormFloat64() float64 {
	// u must be strictly positive for the log; Float64 returns [0,1).
	u := 1 - s.Float64()
	v := s.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
