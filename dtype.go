package gkmeans

import (
	"context"
	"fmt"

	"gkmeans/internal/vec"
)

// The uint8 distance path: SIFT1B-style bvecs data is byte-valued, and
// widening it to float32 at load pays 4x the memory and scan bandwidth the
// data needs. An index built with WithDType(DTypeUint8) — or directly from
// a *U8Matrix via BuildU8 — keeps its rows as bytes, and the searcher
// computes candidate distances with exact integer kernels. Graph
// construction still runs over a transient widened copy of each segment,
// so the graph — and therefore every search result and work counter — is
// bit-identical to the float32 path on the same data; only the resident
// rows and the per-candidate scans shrink.
//
// The element type is decided at the edge — Build's option, BuildU8, the
// loader's dtype word — and kept in the config; past it every segment holds
// a vec.Rows, and only vec asks which type that is. Queries stay []float32,
// but on a uint8 index every value must be an exact byte (an integer in
// [0,255]): Search panics otherwise, on the caller's goroutine, like a
// dimension mismatch, and serving layers refuse such requests up front
// with CheckByteValues.

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
func (x *Index) DType() DType { return x.cfg.dtype }

// DataU8 returns the byte dataset of a uint8 index in segment order, or nil
// for a float32 one (see Data). Treat it as read-only: on a one-segment
// index it is the segment's own rows, otherwise a fresh concatenation of
// every segment's.
func (x *Index) DataU8() *U8Matrix { return x.rows(DTypeUint8).U8() }

// CheckByteValues reports whether every value of q is an exact byte (an
// integer in [0,255]) — the query precondition of a uint8 index. On a
// float32 index it always returns nil. Serving layers call it to turn a
// bad request into an error before the search path panics.
func (x *Index) CheckByteValues(q []float32) error {
	if x.DType() != DTypeUint8 {
		return nil
	}
	for i, v := range q {
		if !vec.ExactByte(v) {
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
	cfg := applyOptions(config{}, opts)
	cfg.dtype = DTypeUint8
	return build(ctx, vec.RowsU8(data), cfg)
}
