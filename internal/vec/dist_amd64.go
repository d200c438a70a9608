//go:build !race

package vec

// Bodies in dist_amd64.s. The exported wrappers reslice the operands to one
// length before calling them; the assembly reads that many elements of each
// slice. Race-detector builds use dist_generic.go instead.

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

//go:noescape
func dotMixedN(cs [][]float64, x []float32, out []float64)

//go:noescape
func addWidened(dst []float64, x []float32)

//go:noescape
func moveComposite(cu, cv []float64, x []float32)

//go:noescape
func l2Sqr2(x, a, b []float32) (float32, float32)
