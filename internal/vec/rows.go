package vec

import (
	"fmt"
	"io"
)

// Rows is the one dataset value above this package: N row-major samples of
// Dim values each, stored as float32 or as bytes. Exactly one of f32 and u8
// backs a non-empty store, and the methods below are the only code in the
// repository that asks which — the index and the searcher hold a Rows and
// let it pick the storage and the kernel.
type Rows struct {
	N, Dim int
	f32    *Matrix
	u8     *U8Matrix
}

// RowsF32 and RowsU8 wrap a matrix, not copying it; nil is the empty store.
func RowsF32(m *Matrix) Rows {
	if m == nil {
		return Rows{}
	}
	return Rows{N: m.N, Dim: m.Dim, f32: m}
}

func RowsU8(m *U8Matrix) Rows {
	if m == nil {
		return Rows{}
	}
	return Rows{N: m.N, Dim: m.Dim, u8: m}
}

// NewRows stores m as bytes when bytes is set — narrowed into fresh
// storage, failing on the first value that is not an exact byte — and
// otherwise wraps m itself.
func NewRows(m *Matrix, bytes bool) (Rows, error) {
	if m == nil || !bytes {
		return RowsF32(m), nil
	}
	u, err := U8FromMatrix(m)
	return RowsU8(u), err
}

// F32 and U8 return the matrix backing a float32 or a byte store, and nil
// for the other kind.
func (r Rows) F32() *Matrix  { return r.f32 }
func (r Rows) U8() *U8Matrix { return r.u8 }

// View returns rows [lo, hi) as a store aliasing r's storage.
func (r Rows) View(lo, hi int) Rows {
	if r.u8 != nil {
		return RowsU8(&U8Matrix{Data: r.u8.Data[lo*r.Dim : hi*r.Dim : hi*r.Dim], N: hi - lo, Dim: r.Dim})
	}
	return RowsF32(&Matrix{Data: r.f32.Data[lo*r.Dim : hi*r.Dim : hi*r.Dim], N: hi - lo, Dim: r.Dim})
}

// Alloc returns a zeroed n-row store of r's dimensionality and element type.
func (r Rows) Alloc(n int) Rows {
	if r.u8 != nil {
		return RowsU8(NewU8Matrix(n, r.Dim))
	}
	return RowsF32(NewMatrix(n, r.Dim))
}

// Copy copies rows [lo, hi) of from — a store of r's dimensionality and
// element type — into r's rows dst, dst+1, ….
func (r Rows) Copy(dst int, from Rows, lo, hi int) {
	if r.u8 != nil {
		copy(r.u8.Data[dst*r.Dim:], from.u8.Data[lo*r.Dim:hi*r.Dim])
		return
	}
	copy(r.f32.Data[dst*r.Dim:], from.f32.Data[lo*r.Dim:hi*r.Dim])
}

// Subset returns a fresh store holding the given rows, in order.
func (r Rows) Subset(idx []int) Rows {
	s := r.Alloc(len(idx))
	for out, i := range idx {
		s.Copy(out, r, i, i+1)
	}
	return s
}

// Widen returns the rows as float32 for the passes that need float
// arithmetic (graph construction, k-means): the matrix itself, or a
// transient widened copy of a byte store. Bytes are exact in float32, so
// whatever is computed over the copy is bit-identical to the float32 path
// on the same values.
func (r Rows) Widen() *Matrix {
	if r.u8 != nil {
		return r.u8.Widen()
	}
	return r.f32
}

// ReadRows reads one matrix block of the element type bytes selects, as
// written by WriteRows.
func ReadRows(rd io.Reader, bytes bool) (Rows, error) {
	if bytes {
		m, err := readU8Matrix(rd)
		return RowsU8(m), err
	}
	m, err := ReadMatrix(rd)
	return RowsF32(m), err
}

// WriteRows writes parts — stores of one dimensionality and element type —
// as the one matrix block their concatenation would write, without
// materialising it, and returns the number of bytes written.
func WriteRows(w io.Writer, parts ...Rows) (int64, error) {
	n := 0
	for _, p := range parts {
		n += p.N
	}
	written, err := writeHeader(w, n, parts[0].Dim)
	for i := 0; i < len(parts) && err == nil; i++ {
		k := 0
		if p := parts[i]; p.u8 != nil {
			k, err = w.Write(p.u8.Data)
		} else {
			k, err = writeF32(w, p.f32.Data)
		}
		written += int64(k)
	}
	return written, err
}

// ExactByte reports whether v is an integer in [0,255] — a value a byte
// store holds exactly.
func ExactByte(v float32) bool { return v >= 0 && v <= 255 && v == float32(uint8(v)) }

// Query is a query readied for the kernels of one Rows by Prepare: its
// float32 values and, against a byte store, their byte narrowing. A Query
// keeps its byte buffer across Prepare calls, so a reused one never
// allocates.
type Query struct {
	f32 []float32
	u8  []uint8
}

// Prepare readies q to search r for v. Against a byte store it narrows v
// into q's buffer, and it panics on a value that is not an exact byte:
// such a query has no exact integer distance to byte rows, and rounding it
// would silently change results — a caller bug, like a dimension mismatch.
// Preparing nil drops q's reference to the last query and keeps its buffer.
//
//gk:hotpath
func (r Rows) Prepare(q *Query, v []float32) {
	q.f32 = v
	if r.u8 == nil {
		return
	}
	if cap(q.u8) < len(v) {
		q.u8 = make([]uint8, len(v))
	}
	q.u8 = q.u8[:len(v)]
	for i, x := range v {
		if !ExactByte(x) {
			panic(notByte(x, i))
		}
		q.u8[i] = uint8(x)
	}
}

// notByte formats Prepare's panic outside the allocation-free hot path.
func notByte(v float32, i int) string {
	return fmt.Sprintf("vec: query value %v at dim %d is not an exact byte (byte rows)", v, i)
}

// Dist returns the squared distance between the prepared query q and row
// i: L2Sqr, or the exact integer L2SqrU8 on a byte store.
//
//gk:hotpath
func (r Rows) Dist(q *Query, i int) float32 {
	if r.u8 != nil {
		return float32(L2SqrU8(q.u8, r.u8.Row(i)))
	}
	return L2Sqr(q.f32, r.f32.Row(i))
}

// DistBound is Dist through the early-abandoning kernels: once the partial
// sum reaches bound it may stop and return any value ≥ bound; below bound
// it returns Dist exactly. On a byte store U8Bound never abandons a row the
// float32 kernel would admit, and integer L2 on bytes is exact, so a search
// over bytes builds exactly the pool it builds over their widened floats.
//
//gk:hotpath
func (r Rows) DistBound(q *Query, i int, bound float32) float32 {
	if r.u8 != nil {
		return float32(L2SqrBoundU8(q.u8, r.u8.Row(i), U8Bound(bound)))
	}
	return L2SqrBound(q.f32, r.f32.Row(i), bound)
}
