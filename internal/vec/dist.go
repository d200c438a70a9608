package vec

// The kernels below are the inner loop of k-means, graph construction and
// search. Each reslices b to len(a) — the only bounds check in front of
// the per-platform body — and calls that body. The bodies accumulate in
// four stripes: stripe j sums the elements i ≡ j (mod 4), the tail joins
// stripe 0, and the result is ((s0+s1)+s2)+s3 (scalar.go pins that order).
// On amd64, dist_amd64.s keeps the four stripes in the four lanes of one
// SSE2 register, lane j = stripe j; packed SUBPS/MULPS/ADDPS round each
// lane exactly as the scalar SUBSS/MULSS/ADDSS the compiler emits for the
// Go loops in dist_generic.go, so amd64 results have the bits the loops
// gave there. Every other GOARCH runs the loops; where its compiler fuses
// multiply-adds (arm64) they may round differently.

// Dot returns the inner product a·b. The slices must have equal length.
//
//gk:hotpath
func Dot(a, b []float32) float32 {
	return dot(a, b[:len(a)])
}

// L2Sqr returns the squared Euclidean distance ‖a−b‖².
//
//gk:hotpath
func L2Sqr(a, b []float32) float32 {
	return l2Sqr(a, b[:len(a)])
}

// abandonBlock is how many elements L2SqrBound accumulates between bound
// checks: frequent enough to save most of the work on high-dimensional
// rejects, rare enough that the extra branch is noise on accepts.
// dist_amd64.s spells it as the literal 32.
const abandonBlock = 32

// L2SqrBound returns ‖a−b‖² like L2Sqr, unless the running sum reaches
// bound partway through — then it abandons the computation and returns the
// partial sum (which is ≥ bound; squared distances only grow). Graph search
// uses it with the current pool-admission threshold: most rejected
// candidates abandon after a fraction of the dimensions, and the saving
// grows with dimensionality (960-d GIST abandons earliest).
//
// When the full distance is below bound the accumulation order matches
// L2Sqr exactly, so the returned value is bit-identical to L2Sqr(a, b).
//
//gk:hotpath
func L2SqrBound(a, b []float32, bound float32) float32 {
	return l2SqrBound(a, b[:len(a)], bound)
}

// DotMixed returns the inner product of a float64 vector with a float32
// vector. Boost k-means keeps cluster composite vectors in float64 (they
// are mutated incrementally millions of times and would drift in float32)
// while samples stay float32; this kernel is its inner loop.
//
//gk:hotpath
func DotMixed(a []float64, b []float32) float64 {
	return dotMixed(a, b[:len(a)])
}

// NearestRow returns the index of the row of m closest (squared Euclidean)
// to q and that distance. It panics on an empty matrix.
//
//gk:hotpath
func NearestRow(m *Matrix, q []float32) (int, float32) {
	if m.N == 0 {
		panic("vec: NearestRow on empty matrix")
	}
	best := 0
	bestD := L2Sqr(m.Row(0), q)
	for i := 1; i < m.N; i++ {
		if d := L2Sqr(m.Row(i), q); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
