package gkmeans

import (
	"context"
	"fmt"
	"io"

	"gkmeans/internal/anns"
	"gkmeans/internal/vec"
)

// The uint8 distance path: SIFT1B-style bvecs data is byte-valued, and
// widening it to float32 at load pays 4x the memory and scan bandwidth the
// data needs. An index built with WithDType(DTypeUint8) — or directly from
// a *U8Matrix via BuildU8 — keeps the dataset as bytes and computes
// candidate distances with exact integer kernels (vec.L2SqrU8 and its
// early-abandoning variant). Graph construction still runs over a
// transient widened copy of each shard, so the graph — and therefore every
// search result and work counter — is bit-identical to the float32 path on
// the same data; only the resident dataset and the per-candidate scans
// shrink. Queries stay []float32 at the API, but on a uint8 index every
// query value must be an exact byte (an integer in [0,255]); Search panics
// otherwise, like a dimension mismatch, and serving layers reject such
// requests up front with CheckByteValues.

// DType identifies the element type an index stores its dataset in.
type DType uint8

const (
	// DTypeFloat32 is the default: float32 rows, float32 kernels.
	DTypeFloat32 DType = iota
	// DTypeUint8 stores byte rows and scans them with exact integer
	// kernels. Build input must be exactly byte-valued.
	DTypeUint8
)

// String returns the wire name of the dtype ("float32", "uint8").
func (d DType) String() string {
	switch d {
	case DTypeFloat32:
		return "float32"
	case DTypeUint8:
		return "uint8"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// ParseDType maps a wire name back to a DType; "" means DTypeFloat32.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "float32":
		return DTypeFloat32, nil
	case "uint8":
		return DTypeUint8, nil
	}
	return 0, fmt.Errorf("gkmeans: unknown dtype %q (want float32 or uint8)", s)
}

// U8Matrix is a row-major uint8 dataset, aliased from the vec layer like
// Matrix and Graph.
type U8Matrix = vec.U8Matrix

// NewU8Matrix allocates a zeroed n×d uint8 matrix.
func NewU8Matrix(n, d int) *U8Matrix { return vec.NewU8Matrix(n, d) }

// WithDType selects the dataset element type Build stores and scans. With
// DTypeUint8 every input value must be an exact byte (an integer in
// [0,255]) — Build returns an error naming the first offender otherwise —
// and the index stores the dataset at 1 byte per value. BuildU8 skips the
// float32 detour entirely for data already loaded as bytes
// (dataset.LoadBvecsU8).
func WithDType(dt DType) Option { return func(c *config) { c.dtype = dt } }

// DType returns the element type of the indexed dataset.
func (x *Index) DType() DType { return x.data.dtype() }

// DataU8 returns the byte dataset of a uint8 index, or nil for a float32
// one. Treat it as read-only; it is the full dataset, the segments hold
// row-range views of it.
func (x *Index) DataU8() *U8Matrix { return x.data.u8 }

// CheckByteValues reports whether every value of q is an exact byte (an
// integer in [0,255]) — the query precondition of a uint8 index. On a
// float32 index it always returns nil. Serving layers call it to turn a
// bad request into an error before the search path panics.
func (x *Index) CheckByteValues(q []float32) error {
	if x.DType() != DTypeUint8 {
		return nil
	}
	for i, v := range q {
		if !(v >= 0 && v <= 255) || v != float32(uint8(v)) {
			return fmt.Errorf("gkmeans: value %v at dim %d is not an exact byte (index dtype uint8)", v, i)
		}
	}
	return nil
}

// BuildU8 is Build for data already held as bytes: it indexes data without
// ever materialising a full float32 copy of it (graph construction widens
// one segment at a time, transiently). The resulting index is identical to
// Build(ctx, data.Widen(), append(opts, WithDType(DTypeUint8))...) — same
// graph, same search results, same counters — at a quarter of the resident
// dataset memory. WithClusters is refused: clustering needs float32
// centroids over the full dataset.
func BuildU8(ctx context.Context, data *U8Matrix, opts ...Option) (*Index, error) {
	return build(ctx, u8Rows(data), applyOptions(config{}, opts))
}

// rowStore is the one dataset value of the package: n row-major samples of
// dim values each, stored as float32 or as bytes. Exactly one of f32 and u8
// is set (neither on the empty store), and the methods below are the only
// code in the package that asks which: Build and BuildU8, the loader and
// Append resolve the element type once, at the edge, and everything
// between them handles a rowStore.
type rowStore struct {
	n, dim int
	f32    *Matrix
	u8     *U8Matrix
}

// f32Rows and u8Rows wrap a matrix; a nil matrix is the empty store.
func f32Rows(m *Matrix) rowStore {
	if m == nil {
		return rowStore{}
	}
	return rowStore{n: m.N, dim: m.Dim, f32: m}
}

func u8Rows(m *U8Matrix) rowStore {
	if m == nil {
		return rowStore{}
	}
	return rowStore{n: m.N, dim: m.Dim, u8: m}
}

// rowsOf stores m in element type dt. DTypeFloat32 aliases m;
// DTypeUint8 narrows it into a fresh byte matrix and fails on the first
// value that is not an exact byte.
func rowsOf(m *Matrix, dt DType) (rowStore, error) {
	switch {
	case m == nil:
		return rowStore{}, nil
	case dt == DTypeFloat32:
		return f32Rows(m), nil
	case dt == DTypeUint8:
		u8, err := vec.U8FromMatrix(m)
		return u8Rows(u8), err
	}
	return rowStore{}, fmt.Errorf("unsupported dtype %s", dt)
}

// readRows reads a dataset block of element type dt.
func readRows(r io.Reader, dt DType) (rowStore, error) {
	if dt == DTypeUint8 {
		m, err := vec.ReadU8Matrix(r)
		return u8Rows(m), err
	}
	m, err := vec.ReadMatrix(r)
	return f32Rows(m), err
}

func (r rowStore) dtype() DType {
	if r.u8 != nil {
		return DTypeUint8
	}
	return DTypeFloat32
}

// view returns rows [lo, hi) as a store aliasing r's storage.
func (r rowStore) view(lo, hi int) rowStore {
	if r.u8 != nil {
		return u8Rows(&U8Matrix{Data: r.u8.Data[lo*r.dim : hi*r.dim : hi*r.dim], N: hi - lo, Dim: r.dim})
	}
	return f32Rows(shardView(r.f32, lo, hi))
}

// allocLike returns a zeroed n-row store of r's dimensionality and type.
func (r rowStore) allocLike(n int) rowStore {
	if r.u8 != nil {
		return u8Rows(vec.NewU8Matrix(n, r.dim))
	}
	return f32Rows(NewMatrix(n, r.dim))
}

// copyRows copies rows [lo, hi) of from — a store of r's dimensionality
// and type — into r's rows dst, dst+1, ….
func (r rowStore) copyRows(dst int, from rowStore, lo, hi int) {
	if r.u8 != nil {
		copy(r.u8.Data[dst*r.dim:], from.u8.Data[lo*r.dim:hi*r.dim])
		return
	}
	copy(r.f32.Data[dst*r.dim:], from.f32.Data[lo*r.dim:hi*r.dim])
}

// widen returns the rows as float32 for the passes that need float
// arithmetic (graph construction, the routing k-means): the matrix itself,
// or a transient widened copy of a byte store. Bytes are exact in float32,
// so whatever is computed over the copy is bit-identical to the float32
// build of the same values.
func (r rowStore) widen() *Matrix {
	if r.u8 != nil {
		return r.u8.Widen()
	}
	return r.f32
}

// newSearcher builds the search structures over the rows and their graph —
// the package's single entry into internal/anns' two constructors.
func (r rowStore) newSearcher(g *Graph, entries int) (*anns.Searcher, error) {
	if r.u8 != nil {
		return anns.NewSearcherU8(r.u8, g, entries)
	}
	return anns.NewSearcher(r.f32, g, entries)
}

// write emits the dataset block: vec.WriteMatrix or vec.WriteU8Matrix.
func (r rowStore) write(w io.Writer) error {
	if r.u8 != nil {
		_, err := vec.WriteU8Matrix(w, r.u8)
		return err
	}
	_, err := vec.WriteMatrix(w, r.f32)
	return err
}
