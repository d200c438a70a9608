package vec

// Bodies in dist_amd64.s. The exported wrappers reslice b to len(a) before
// calling them; the assembly reads len(a) elements of each slice.

//go:noescape
func dot(a, b []float32) float32

//go:noescape
func l2Sqr(a, b []float32) float32

//go:noescape
func l2SqrBound(a, b []float32, bound float32) float32

//go:noescape
func dotMixed(a []float64, b []float32) float64

//go:noescape
func l2SqrU8(a, b []uint8) int32

//go:noescape
func l2SqrBoundU8(a, b []uint8, bound int32) int32
