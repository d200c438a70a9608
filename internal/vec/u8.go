package vec

import "fmt"

// U8Matrix is the uint8 counterpart of Matrix: an n×d row-major matrix of
// byte values, the native representation of SIFT1B-style bvecs corpora.
// Keeping byte data as bytes instead of widening to float32 shrinks the
// dataset 4x and scans proportionally less memory per distance computation;
// the integer kernels below (L2SqrU8, L2SqrBoundU8) compute exact squared
// distances on it with no float rounding at all.
type U8Matrix struct {
	// Data holds the n*d values row by row.
	Data []uint8
	// N is the number of rows (samples).
	N int
	// Dim is the number of columns (vector dimensionality).
	Dim int
}

// MaxU8Dim is the largest dimensionality a U8Matrix may have:
// floor(MaxInt32 / 255²), so a full squared distance — at most
// Dim·255² — always fits the kernels' int32 accumulators exactly.
const MaxU8Dim = (1<<31 - 1) / (255 * 255)

// NewU8Matrix allocates a zeroed n×d uint8 matrix. Shapes the int32
// distance kernels cannot serve exactly (d > MaxU8Dim) are refused.
func NewU8Matrix(n, d int) *U8Matrix {
	if n < 0 || d <= 0 || d > MaxU8Dim {
		panic(fmt.Sprintf("vec: invalid uint8 matrix shape %d×%d (dim cap %d)", n, d, MaxU8Dim))
	}
	return &U8Matrix{Data: make([]uint8, n*d), N: n, Dim: d}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *U8Matrix) Row(i int) []uint8 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// SubsetRows returns a new matrix containing the given rows, in order.
func (m *U8Matrix) SubsetRows(idx []int) *U8Matrix {
	s := NewU8Matrix(len(idx), m.Dim)
	for out, i := range idx {
		copy(s.Row(out), m.Row(i))
	}
	return s
}

// Equal reports whether two matrices have identical shape and contents.
func (m *U8Matrix) Equal(o *U8Matrix) bool {
	if m.N != o.N || m.Dim != o.Dim {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// Widen returns a float32 copy of the matrix. Every byte is exactly
// representable in float32, so the result is the matrix every pre-uint8
// consumer of bvecs data would have loaded — graph construction over the
// widened copy is bit-identical to the float32 path.
func (m *U8Matrix) Widen() *Matrix {
	w := NewMatrix(m.N, m.Dim)
	for i, b := range m.Data {
		w.Data[i] = float32(b)
	}
	return w
}

// U8FromMatrix converts a float32 matrix whose every value is an exact byte
// (an integer in [0,255]) into a U8Matrix. A value that is not exactly a
// byte returns an error naming it — narrowing such data would silently
// change distances, so the caller must decide how to quantize.
func U8FromMatrix(m *Matrix) (*U8Matrix, error) {
	if m.Dim > MaxU8Dim {
		return nil, fmt.Errorf("vec: %d-dimensional data exceeds the uint8 kernel cap %d", m.Dim, MaxU8Dim)
	}
	u := NewU8Matrix(m.N, m.Dim)
	for i, v := range m.Data {
		if !(v >= 0 && v <= 255) || v != float32(uint8(v)) {
			return nil, fmt.Errorf("vec: value %v at row %d col %d is not an exact byte", v, i/m.Dim, i%m.Dim)
		}
		u.Data[i] = uint8(v)
	}
	return u, nil
}
