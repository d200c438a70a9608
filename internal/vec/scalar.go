package vec

// Scalar reference kernels. These are the pinned semantics of the hot-path
// kernels in dist.go and dist_u8.go: one element at a time, with the exact
// accumulation order of their bodies (the SSE2 lanes of dist_amd64.s, the
// unrolled loops of dist_generic.go). They are never called on a hot path —
// the kernel-equivalence test suite (and the FuzzKernelEquivalence target)
// diff the kernels against them bit-for-bit at every tail residue, so any
// rewrite of a body that changes a single ULP of any result fails the
// suite.
//
// Float32 addition is not associative, so the float32 references must
// replicate the bodies' striped accumulation to be bit-identical:
// element i of the 4-wide region accumulates into lane i%4, the scalar tail
// into lane 0, and the reduction is ((s0+s1)+s2)+s3. Integer addition is
// associative, so the uint8 reference is a plain left-to-right loop.

// dotScalar is the bit-exact scalar reference for Dot.
func dotScalar(a, b []float32) float32 {
	var s [4]float32
	n := len(a) &^ 3
	for i := 0; i < n; i++ {
		s[i%4] += a[i] * b[i]
	}
	for i := n; i < len(a); i++ {
		s[0] += a[i] * b[i]
	}
	return ((s[0] + s[1]) + s[2]) + s[3]
}

// l2SqrScalar is the bit-exact scalar reference for L2Sqr (and for
// L2SqrBound whenever the full distance is below the bound).
func l2SqrScalar(a, b []float32) float32 {
	var s [4]float32
	n := len(a) &^ 3
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s[i%4] += d * d
	}
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s[0] += d * d
	}
	return ((s[0] + s[1]) + s[2]) + s[3]
}

// dotMixedScalar is the bit-exact scalar reference for DotMixed: the same
// striping in float64, each float32 widened exactly before its product.
func dotMixedScalar(a []float64, b []float32) float64 {
	var s [4]float64
	n := len(a) &^ 3
	for i := 0; i < n; i++ {
		s[i%4] += a[i] * float64(b[i])
	}
	for i := n; i < len(a); i++ {
		s[0] += a[i] * float64(b[i])
	}
	return ((s[0] + s[1]) + s[2]) + s[3]
}

// dotMixedNScalar is the reference for DotMixedN: one dotMixedScalar per
// composite.
func dotMixedNScalar(cs [][]float64, x []float32, out []float64) {
	for i, c := range cs {
		out[i] = dotMixedScalar(c, x)
	}
}

// l2Sqr2Scalar is the reference for L2Sqr2: two l2SqrScalar calls.
func l2Sqr2Scalar(x, a, b []float32) (float32, float32) {
	return l2SqrScalar(x, a), l2SqrScalar(x, b)
}

// addWidenedScalar is the reference for AddWidened. Each element is one
// exact widening and one rounding, so order is no part of the contract.
func addWidenedScalar(dst []float64, x []float32) {
	for j := range dst {
		dst[j] += float64(x[j])
	}
}

// moveCompositeScalar is the reference for MoveComposite.
func moveCompositeScalar(cu, cv []float64, x []float32) {
	for j := range x {
		cu[j] -= float64(x[j])
		cv[j] += float64(x[j])
	}
}

// l2SqrU8Scalar is the exact reference for L2SqrU8: integer sums are
// associative, so plain left-to-right accumulation is the full contract.
func l2SqrU8Scalar(a, b []uint8) int32 {
	var s int32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		s += d * d
	}
	return s
}
