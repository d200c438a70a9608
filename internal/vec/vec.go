// Package vec provides the dense vector substrate used by every algorithm in
// this repository: flat row-major float32 and uint8 matrix types, the
// squared Euclidean / inner-product kernels that dominate k-means, k-NN
// graph construction and search run time, and Rows — the one dataset value
// that holds either element type and picks the kernel for it.
//
// All distances in this code base are squared Euclidean (no square roots);
// the paper's average distortion (Eqn. 4) is defined on squared distances,
// and squared distances preserve nearest-neighbour order.
package vec

import (
	"fmt"
	"math"
)

// Matrix is an n×d row-major matrix of float32 values. The zero value is an
// empty matrix. Rows are the data samples; Row returns a slice aliasing the
// underlying storage, so callers must not grow it.
type Matrix struct {
	// Data holds the n*d values row by row.
	Data []float32
	// N is the number of rows (samples).
	N int
	// Dim is the number of columns (vector dimensionality).
	Dim int
}

// NewMatrix allocates a zeroed n×d matrix.
func NewMatrix(n, d int) *Matrix {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %d×%d", n, d))
	}
	return &Matrix{Data: make([]float32, n*d), N: n, Dim: d}
}

// FromRows builds a matrix by copying the given equally sized rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("vec: ragged row %d: got %d values, want %d", i, len(r), d))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Dim+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Dim+j] = v }

// SetRow copies r into row i.
func (m *Matrix) SetRow(i int, r []float32) {
	if len(r) != m.Dim {
		panic(fmt.Sprintf("vec: SetRow length %d, want %d", len(r), m.Dim))
	}
	copy(m.Row(i), r)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Data: make([]float32, len(m.Data)), N: m.N, Dim: m.Dim}
	copy(c.Data, m.Data)
	return c
}

// SubsetRows returns a new matrix containing the given rows, in order.
func (m *Matrix) SubsetRows(idx []int) *Matrix {
	s := NewMatrix(len(idx), m.Dim)
	for out, i := range idx {
		copy(s.Row(out), m.Row(i))
	}
	return s
}

// Norms returns ‖x_i‖² for every row. k-means and BKM precompute these once:
// with them, a squared distance needs only one dot product.
func (m *Matrix) Norms() []float32 {
	out := make([]float32, m.N)
	for i := 0; i < m.N; i++ {
		out[i] = SqNorm(m.Row(i))
	}
	return out
}

// Mean computes the centroid (column-wise mean) of the rows listed in idx.
// It returns a zero vector when idx is empty.
func (m *Matrix) Mean(idx []int) []float32 {
	c := make([]float32, m.Dim)
	if len(idx) == 0 {
		return c
	}
	acc := make([]float64, m.Dim)
	for _, i := range idx {
		row := m.Row(i)
		for j, v := range row {
			acc[j] += float64(v)
		}
	}
	inv := 1 / float64(len(idx))
	for j := range c {
		c[j] = float32(acc[j] * inv)
	}
	return c
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
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

// SqNorm returns the squared Euclidean norm of x.
func SqNorm(x []float32) float32 { return Dot(x, x) }

// Normalize scales x to unit Euclidean norm in place; a zero vector is left
// unchanged. It returns the original norm.
func Normalize(x []float32) float32 {
	n := math.Sqrt(float64(SqNorm(x)))
	if n == 0 {
		return 0
	}
	inv := float32(1 / n)
	for i := range x {
		x[i] *= inv
	}
	return float32(n)
}
