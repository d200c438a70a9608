package vec

// The kernels below are the inner loop of k-means, graph construction and
// search. Each reslices its other operands to the length of the one that
// sets it (b to len(a) for the two-operand kernels) — the only bounds check
// in front of the per-platform body — and calls that body. The bodies accumulate in
// four stripes: stripe j sums the elements i ≡ j (mod 4), the tail joins
// stripe 0, and the result is ((s0+s1)+s2)+s3 (scalar.go pins that order).
// On amd64, dist_amd64.s keeps the four stripes in the four lanes of one
// SSE2 register, lane j = stripe j; packed SUBPS/MULPS/ADDPS round each
// lane exactly as the scalar SUBSS/MULSS/ADDSS the compiler emits for the
// Go loops in dist_generic.go, so amd64 results have the bits the loops
// gave there. Every other GOARCH runs the loops; where its compiler fuses
// multiply-adds (arm64) they may round differently. Race-detector builds
// run the loops on amd64 too: the detector cannot see memory the assembly
// reads or writes, and the loops give the same bits.

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

// DotMixedN sets out[i] = DotMixed(cs[i], x) for every composite, with the
// same bits, in one pass over x: each float32 of x is loaded and widened
// once for up to four composites. Boost k-means scores a sample against
// its own cluster and every candidate with one call. Every cs[i] must have
// len(x) elements and out at least len(cs).
//
//gk:hotpath
func DotMixedN(cs [][]float64, x []float32, out []float64) {
	out = out[:len(cs)]
	for _, c := range cs {
		if len(c) != len(x) {
			panic("vec: DotMixedN composite and sample lengths differ")
		}
	}
	dotMixedN(cs, x, out)
}

// AddWidened adds x, widened exactly to float64, to dst element by element:
// dst[j] += float64(x[j]) for j < len(dst). It builds composite vectors.
//
//gk:hotpath
func AddWidened(dst []float64, x []float32) {
	addWidened(dst, x[:len(dst)])
}

// MoveComposite moves sample x from composite cu to composite cv:
// cu[j] −= float64(x[j]) and cv[j] += float64(x[j]) for j < len(x). It is
// the composite update of every accepted boost k-means move.
//
//gk:hotpath
func MoveComposite(cu, cv []float64, x []float32) {
	moveComposite(cu[:len(x)], cv[:len(x)], x)
}

// L2Sqr2 returns L2Sqr(x, a) and L2Sqr(x, b), with the same bits, loading
// x once: the 2M tree's equal-size cut scores every member against both
// centres.
//
//gk:hotpath
func L2Sqr2(x, a, b []float32) (float32, float32) {
	return l2Sqr2(x, a[:len(x)], b[:len(x)])
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
