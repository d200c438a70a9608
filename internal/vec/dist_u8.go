package vec

import "math"

// Integer distance kernels for U8Matrix rows. Each squared difference is at
// most 255² = 65025 and U8Matrix caps Dim at MaxU8Dim, so the int32
// accumulators can never overflow and the results are exact — no float
// rounding anywhere. Because integer addition is associative, the order in
// which a body sums (16 bytes at a time in dist_amd64.s, four stripes in
// dist_generic.go) changes nothing about the result, only the throughput.

// L2SqrU8 returns the exact squared Euclidean distance between two byte
// vectors as an int32. The slices must have equal length ≤ MaxU8Dim.
//
//gk:hotpath
func L2SqrU8(a, b []uint8) int32 {
	return l2SqrU8(a, b[:len(a)])
}

// L2SqrBoundU8 returns L2SqrU8(a, b) unless the running sum reaches bound
// partway through — then it abandons the computation and returns the
// partial sum (which is ≥ bound; squared distances only grow). The bound
// check cadence matches the float32 L2SqrBound (every abandonBlock
// elements), and whenever the full distance is below bound the returned
// value equals L2SqrU8(a, b) exactly.
//
//gk:hotpath
func L2SqrBoundU8(a, b []uint8, bound int32) int32 {
	return l2SqrBoundU8(a, b[:len(a)], bound)
}

// U8Bound converts a float32 abandonment bound into an int32 bound for
// L2SqrBoundU8: the smallest integer t with float32(t) ≥ bound, clamped to
// [0, MaxInt32]. An integer partial sum reaching t therefore implies the
// float32 view of that sum reaches bound, so the integer kernel never
// abandons a candidate the float32 kernel would have admitted — the
// property the uint8/float32 search-parity tests pin.
func U8Bound(bound float32) int32 {
	if !(bound > 0) {
		return 0
	}
	if bound >= float32(math.MaxInt32) {
		return math.MaxInt32
	}
	return int32(math.Ceil(float64(bound)))
}
