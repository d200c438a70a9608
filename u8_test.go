package gkmeans

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// End-to-end parity of the uint8 distance path against the float32 path.
// The contract (dtype.go): graphs are built over transient widened copies
// and byte partial sums are exact in float32, so for the same byte-valued
// data, options and seed the two paths return bit-identical results AND
// identical work counters — only the resident dataset differs.

// writeBvecsFile round-trips byte-valued synthetic data through the bvecs
// wire format so the test exercises both loaders on one real file.
func writeBvecsFile(t *testing.T, data *Matrix) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.bvecs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBvecs(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildTwins loads the same bvecs file through both paths and builds both
// indexes with identical options.
func buildTwins(t *testing.T, path string, opts ...Option) (u8Idx, f32Idx *Index) {
	t.Helper()
	u8, err := dataset.LoadBvecsU8(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := dataset.LoadBvecsFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u8Idx, err = BuildU8(context.Background(), u8, opts...); err != nil {
		t.Fatal(err)
	}
	if f32Idx, err = Build(context.Background(), f32, opts...); err != nil {
		t.Fatal(err)
	}
	return u8Idx, f32Idx
}

// assertParity runs a query set through both indexes and requires identical
// results and identical cumulative work counters.
func assertParity(t *testing.T, u8Idx, f32Idx *Index, queries *Matrix, topK, ef int) {
	t.Helper()
	for qi := 0; qi < queries.N; qi++ {
		a := u8Idx.Search(queries.Row(qi), topK, ef)
		b := f32Idx.Search(queries.Row(qi), topK, ef)
		if len(a) != len(b) {
			t.Fatalf("query %d: uint8 returned %d results, float32 %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d result %d: uint8 %v vs float32 %v", qi, i, a[i], b[i])
			}
		}
	}
	if as, bs := u8Idx.SearchStats(), f32Idx.SearchStats(); as != bs {
		t.Fatalf("work counters diverge: uint8 %+v vs float32 %+v", as, bs)
	}
}

func TestU8FloatParityEndToEnd(t *testing.T) {
	data := dataset.SIFTLike(240, 41) // byte-valued by construction
	path := writeBvecsFile(t, data)
	queries := dataset.SIFTLike(12, 87)
	base := []Option{WithKappa(6), WithXi(18), WithTau(3), WithSeed(41)}

	configs := []struct {
		name string
		opts []Option
	}{
		{"mono", nil},
		{"mono 1 worker", []Option{WithWorkers(1)}},
		{"mono 4 workers", []Option{WithWorkers(4)}},
		{"sharded", []Option{WithShards(3)}},
		{"routed", []Option{WithShards(3), WithRouting(2)}},
		// More entries than ef: the grouped entry scan must group and
		// prune identically on both dtypes.
		{"mono 64 entries", []Option{WithEntryPoints(64)}},
		{"routed 64 entries", []Option{WithShards(3), WithRouting(2), WithEntryPoints(64)}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			u8Idx, f32Idx := buildTwins(t, path, append(append([]Option{}, base...), tc.opts...)...)
			if u8Idx.DType() != DTypeUint8 || f32Idx.DType() != DTypeFloat32 {
				t.Fatalf("dtypes: %s / %s", u8Idx.DType(), f32Idx.DType())
			}
			if u8Idx.N() != f32Idx.N() || u8Idx.Dim() != f32Idx.Dim() {
				t.Fatalf("shapes: %dx%d vs %dx%d", u8Idx.N(), u8Idx.Dim(), f32Idx.N(), f32Idx.Dim())
			}
			assertParity(t, u8Idx, f32Idx, queries, 5, 40)
		})
	}
}

// Worker count must not change results on either path (determinism), so
// parity across worker counts follows; this pins the uint8 side directly.
func TestU8DeterministicAcrossWorkers(t *testing.T) {
	data := dataset.SIFTLike(180, 43)
	u8, err := vec.U8FromMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.SIFTLike(8, 88)
	var ref *Index
	for _, workers := range []int{1, 2, 8} {
		idx, err := BuildU8(context.Background(), u8,
			WithKappa(6), WithXi(18), WithTau(3), WithSeed(43), WithWorkers(workers), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = idx
			continue
		}
		for qi := 0; qi < queries.N; qi++ {
			a := ref.Search(queries.Row(qi), 5, 32)
			b := idx.Search(queries.Row(qi), 5, 32)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d query %d result %d: %v vs %v", workers, qi, i, a[i], b[i])
				}
			}
		}
	}
}

// The mutation chain — append, delete, compact — must keep the uint8 dtype
// at every step and stay in lockstep with the float32 twin, including
// through a save/load cycle at the end.
func TestU8MutationChainParity(t *testing.T) {
	data := dataset.SIFTLike(160, 47)
	path := writeBvecsFile(t, data)
	queries := dataset.SIFTLike(10, 89)
	opts := []Option{WithKappa(6), WithXi(18), WithTau(3), WithSeed(47), WithShards(2), WithRouting(2)}
	u8Idx, f32Idx := buildTwins(t, path, opts...)

	extra := NewMatrix(8, u8Idx.Dim())
	for i := range extra.Data {
		extra.Data[i] = float32((i * 7) % 256) // exact bytes: both paths accept them
	}
	step := func(name string, mutate func(*Index) (*Index, error)) {
		t.Helper()
		var err error
		if u8Idx, err = mutate(u8Idx); err != nil {
			t.Fatalf("%s on uint8: %v", name, err)
		}
		if f32Idx, err = mutate(f32Idx); err != nil {
			t.Fatalf("%s on float32: %v", name, err)
		}
		if u8Idx.DType() != DTypeUint8 {
			t.Fatalf("after %s the index reports dtype %s", name, u8Idx.DType())
		}
		assertParity(t, u8Idx, f32Idx, queries, 5, 40)
	}
	ctx := context.Background()
	step("append", func(x *Index) (*Index, error) { return x.Append(ctx, extra) })
	step("delete", func(x *Index) (*Index, error) { return x.Delete(3, 9, 161) })
	step("compact", func(x *Index) (*Index, error) { return x.Compact(ctx) })

	// The chain's end state must survive disk, dtype included.
	file := filepath.Join(t.TempDir(), "chain.gkx")
	if err := SaveIndex(file, u8Idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(file)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DType() != DTypeUint8 {
		t.Fatalf("reloaded chain reports dtype %s", loaded.DType())
	}
	for qi := 0; qi < queries.N; qi++ {
		a := u8Idx.Search(queries.Row(qi), 5, 40)
		b := loaded.Search(queries.Row(qi), 5, 40)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("reload query %d result %d: %v vs %v", qi, i, a[i], b[i])
			}
		}
	}
}

// Non-byte queries and inserts must be refused, not computed wrongly.
func TestU8RejectsNonByteValues(t *testing.T) {
	data := dataset.SIFTLike(80, 53)
	u8, err := vec.U8FromMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildU8(context.Background(), u8, WithKappa(5), WithXi(15), WithTau(3), WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float32, idx.Dim())
	bad[2] = 3.5
	if err := idx.CheckByteValues(bad); err == nil {
		t.Fatal("CheckByteValues accepted 3.5")
	}
	bad[2] = -1
	if err := idx.CheckByteValues(bad); err == nil {
		t.Fatal("CheckByteValues accepted -1")
	}
	bad[2] = 256
	if err := idx.CheckByteValues(bad); err == nil {
		t.Fatal("CheckByteValues accepted 256")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Search on a uint8 index accepted a non-byte query without panicking")
		}
	}()
	bad[2] = 0.25
	idx.Search(bad, 3, 16)
}

// A non-byte query panics on the caller's goroutine, where it can be
// recovered, whichever entry point takes it. Raised in a batch worker or a
// fan-out goroutine instead, the same panic would end the process.
func TestU8NonByteQueryPanicsOnCaller(t *testing.T) {
	idx, err := Build(context.Background(), dataset.SIFTLike(120, 61), WithDType(DTypeUint8),
		WithShards(2), WithWorkers(2), WithKappa(5), WithXi(15), WithTau(3), WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.SIFTLike(8, 62)
	queries.Set(5, 3, 0.5)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"SearchBatch", func() { idx.SearchBatch(queries, 3, 16) }},
		{"SearchBatchNProbe", func() { idx.SearchBatchNProbe(queries, 3, 16, 1) }},
		{"Search over two segments", func() { idx.Search(queries.Row(5), 3, 16) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-byte query", c.name)
				}
			}()
			c.call()
		}()
	}
}

// Append with non-byte vectors on a uint8 index must error cleanly.
func TestU8AppendRejectsNonByteVectors(t *testing.T) {
	data := dataset.SIFTLike(80, 59)
	u8, err := vec.U8FromMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildU8(context.Background(), u8, WithKappa(5), WithXi(15), WithTau(3), WithSeed(59))
	if err != nil {
		t.Fatal(err)
	}
	extra := NewMatrix(2, idx.Dim())
	extra.Data[1] = 0.5
	if _, err := idx.Append(context.Background(), extra); err == nil {
		t.Fatal("Append accepted non-byte vectors on a uint8 index")
	}
}
