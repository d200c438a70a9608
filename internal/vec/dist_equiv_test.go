package vec

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// Kernel-equivalence suite: the hot-path kernels must be bit-identical to
// the scalar references in scalar.go at every length 0..130 (every tail
// residue of the 4-, 8- and 16-wide steps and several abandonBlock
// boundaries), and the bounded kernels must equal the unbounded ones
// whenever the full distance is below the bound. The suite runs whichever
// body the GOARCH compiles: the SSE2 assembly on amd64, the Go loops
// elsewhere (386 among them). Float32 addition is not associative, so
// these tests pin the accumulation order itself — any rewrite that
// reorders a single addition fails here before it can break the
// determinism and early-abandon tests upstream.

// testLCG is a tiny deterministic generator for test vectors; the suite
// must not depend on math/rand ordering across Go versions.
type testLCG uint64

func (g *testLCG) next() uint32 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint32(*g >> 32)
}

// f32 returns a finite float32 in roughly [-8, 8) with a fractional part,
// so squared sums exercise real rounding (not exact small integers).
func (g *testLCG) f32() float32 {
	return float32(int32(g.next()%1024)-512) / 64
}

func (g *testLCG) u8() uint8 { return uint8(g.next()) }

func testVecs(n int, seed uint64) (a, b []float32) {
	g := testLCG(seed)
	a = make([]float32, n)
	b = make([]float32, n)
	for i := range a {
		a[i] = g.f32()
		b[i] = g.f32()
	}
	return a, b
}

func testVecsU8(n int, seed uint64) (a, b []uint8) {
	g := testLCG(seed)
	a = make([]uint8, n)
	b = make([]uint8, n)
	for i := range a {
		a[i] = g.u8()
		b[i] = g.u8()
	}
	return a, b
}

// testVecsMixed returns a float64 composite-like vector (values carrying
// all 53 significand bits) and a float32 sample for DotMixed.
func testVecsMixed(n int, seed uint64) (a []float64, b []float32) {
	g := testLCG(seed)
	a = make([]float64, n)
	b = make([]float32, n)
	for i := range a {
		a[i] = float64(int32(g.next())) / 3
		b[i] = g.f32()
	}
	return a, b
}

// l2SqrBoundRef is the scalar reference for L2SqrBound, partial sums
// included: l2SqrScalar's stripes, with the bound checked after every
// abandonBlock elements of the 4-wide region and at its end.
func l2SqrBoundRef(a, b []float32, bound float32) float32 {
	var s [4]float32
	n := len(a) &^ 3
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s[i%4] += d * d
		if j := i + 1; j%abandonBlock == 0 || j == n {
			if sum := ((s[0] + s[1]) + s[2]) + s[3]; sum >= bound {
				return sum
			}
		}
	}
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s[0] += d * d
	}
	return ((s[0] + s[1]) + s[2]) + s[3]
}

// maxEquivLen covers all tail residues of the 4-wide loops plus several
// abandonBlock (32) boundaries of the bounded kernels.
const maxEquivLen = 130

func TestDotMatchesScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecs(n, uint64(n)+1)
		got := Dot(a, b)
		want := dotScalar(a, b)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("len %d: Dot=%x scalar=%x", n, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

func TestL2SqrMatchesScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecs(n, uint64(n)+101)
		got := L2Sqr(a, b)
		want := l2SqrScalar(a, b)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("len %d: L2Sqr=%x scalar=%x", n, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

func TestDotMixedMatchesScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecsMixed(n, uint64(n)+601)
		got := DotMixed(a, b)
		want := dotMixedScalar(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("len %d: DotMixed=%x scalar=%x", n, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestL2Sqr2MatchesScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		x, a := testVecs(n, uint64(n)+901)
		_, b := testVecs(n, uint64(n)+902)
		gotA, gotB := L2Sqr2(x, a, b)
		wantA, wantB := l2Sqr2Scalar(x, a, b)
		if math.Float32bits(gotA) != math.Float32bits(wantA) || math.Float32bits(gotB) != math.Float32bits(wantB) {
			t.Fatalf("len %d: L2Sqr2=(%x, %x) scalar=(%x, %x)", n,
				math.Float32bits(gotA), math.Float32bits(gotB), math.Float32bits(wantA), math.Float32bits(wantB))
		}
	}
}

// TestDotMixedNMatchesScalarReference runs every composite count through
// the four-wide groups and the one-at-a-time rest (0..9), at every length.
func TestDotMixedNMatchesScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		for m := 0; m <= 9; m++ {
			cs, x := testComposites(m, n, uint64(n*16+m)+1001)
			got, want := make([]float64, m), make([]float64, m)
			DotMixedN(cs, x, got)
			dotMixedNScalar(cs, x, want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("len %d, %d composites: out[%d]=%x scalar=%x", n, m, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestAddWidenedAndMoveCompositeMatchScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		cs, x := testComposites(2, n, uint64(n)+1101)
		got, want := cloneRows(cs), cloneRows(cs)
		AddWidened(got[0], x)
		addWidenedScalar(want[0], x)
		MoveComposite(got[0], got[1], x)
		moveCompositeScalar(want[0], want[1], x)
		for r := range got {
			for j := range got[r] {
				if math.Float64bits(got[r][j]) != math.Float64bits(want[r][j]) {
					t.Fatalf("len %d: composite %d element %d = %x, scalar %x", n, r, j, math.Float64bits(got[r][j]), math.Float64bits(want[r][j]))
				}
			}
		}
	}
}

// testComposites returns m float64 composites and one float32 sample, all
// of length n, drawn as testVecsMixed draws them.
func testComposites(m, n int, seed uint64) ([][]float64, []float32) {
	cs := make([][]float64, m)
	var x []float32
	for i := range cs {
		cs[i], x = testVecsMixed(n, seed+uint64(i)*7)
	}
	if x == nil {
		_, x = testVecsMixed(n, seed)
	}
	return cs, x
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func TestL2SqrU8MatchesScalarReference(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecsU8(n, uint64(n)+201)
		if got, want := L2SqrU8(a, b), l2SqrU8Scalar(a, b); got != want {
			t.Fatalf("len %d: L2SqrU8=%d scalar=%d", n, got, want)
		}
	}
}

// TestL2SqrBoundBelowBound pins the bit-identical-below-bound contract: at
// every length and for bounds above the full distance, L2SqrBound returns
// exactly L2Sqr's bits; for bounds at or below it, the partial it returns
// is >= the bound and has l2SqrBoundRef's bits — the bound is checked at
// the same points, so a partial sum is the same too.
func TestL2SqrBoundBelowBound(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecs(n, uint64(n)+301)
		full := L2Sqr(a, b)
		for _, bound := range []float32{
			full + 1, full*2 + 1, math.MaxFloat32, float32(math.Inf(1)),
		} {
			got := L2SqrBound(a, b, bound)
			if math.Float32bits(got) != math.Float32bits(full) {
				t.Fatalf("len %d bound %g: L2SqrBound=%x L2Sqr=%x", n, bound, math.Float32bits(got), math.Float32bits(full))
			}
		}
		for _, bound := range []float32{0, full / 8, full / 4, full / 2, full * 3 / 4, full, float32(math.NaN())} {
			got := L2SqrBound(a, b, bound)
			if got < bound {
				t.Fatalf("len %d: abandoned partial %g below bound %g", n, got, bound)
			}
			if want := l2SqrBoundRef(a, b, bound); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("len %d bound %g: L2SqrBound=%x reference=%x", n, bound, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

func TestL2SqrBoundU8BelowBound(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecsU8(n, uint64(n)+401)
		full := L2SqrU8(a, b)
		for _, bound := range []int32{full + 1, math.MaxInt32} {
			if got := L2SqrBoundU8(a, b, bound); got != full {
				t.Fatalf("len %d bound %d: L2SqrBoundU8=%d L2SqrU8=%d", n, bound, got, full)
			}
		}
		for _, bound := range []int32{0, full / 2, full} {
			if got := L2SqrBoundU8(a, b, bound); got < bound {
				t.Fatalf("len %d: abandoned partial %d below bound %d", n, got, bound)
			}
		}
	}
}

// TestL2SqrU8MatchesWidenedFloat proves the exactness claim behind the
// uint8 path: on byte data of SIFT-like dimensionality, integer L2 equals
// the float32 kernel on the widened copy bit-for-bit, because every
// float32 stripe partial stays far below 2²⁴.
func TestL2SqrU8MatchesWidenedFloat(t *testing.T) {
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecsU8(n, uint64(n)+501)
		af := make([]float32, n)
		bf := make([]float32, n)
		for i := range a {
			af[i] = float32(a[i])
			bf[i] = float32(b[i])
		}
		want := L2Sqr(af, bf)
		if got := float32(L2SqrU8(a, b)); got != want {
			t.Fatalf("len %d: u8=%g float=%g", n, got, want)
		}
	}
}

// TestKernelLengthContract pins the guard in front of every kernel body:
// the exported kernels reslice b to len(a), so a b shorter than a (and
// without the capacity to reslice) panics instead of being read past its
// end, and a longer b is read only up to len(a). The inputs sit in buffers
// whose elements past len(a) are poison (NaN, 0xff), so a body that read
// one element too many of either slice would change the result.
func TestKernelLengthContract(t *testing.T) {
	nan := float32(math.NaN())
	for n := 0; n <= maxEquivLen; n++ {
		a, b := testVecs(n, uint64(n)+801)
		am, _ := testVecsMixed(n, uint64(n)+801)
		au, bu := testVecsU8(n, uint64(n)+801)
		pa, pb, pam := poisoned(a, nan), poisoned(b, nan), poisoned(am, math.NaN())
		pau, pbu := poisoned(au, 0xff), poisoned(bu, 0xff)
		long, longU := pb[:n+16], pbu[:n+16]
		full, fullU := L2Sqr(a, b), L2SqrU8(au, bu)
		same := func(name string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("len %d: %s read past len(a): got %v, want %v", n, name, got, want)
			}
		}
		sameRow := func(name string, got, want []float64) {
			t.Helper()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("len %d: %s element %d: got %v, want %v", n, name, j, got[j], want[j])
				}
			}
		}
		same("Dot", float64(Dot(pa, long)), float64(Dot(a, b)))
		same("L2Sqr", float64(L2Sqr(pa, long)), float64(full))
		same("L2SqrBound", float64(L2SqrBound(pa, long, full/2)), float64(L2SqrBound(a, b, full/2)))
		same("L2SqrBound(inf)", float64(L2SqrBound(pa, long, float32(math.Inf(1)))), float64(full))
		same("DotMixed", DotMixed(pam, long), DotMixed(am, b))
		gotA, gotB := L2Sqr2(pa, long, long)
		same("L2Sqr2", float64(gotA), float64(full))
		same("L2Sqr2 (b)", float64(gotB), float64(full))
		// The writing kernels must leave the poison past len alone.
		out := poisoned([]float64{0, 0}, math.NaN())
		DotMixedN([][]float64{pam, pam}, pa, out)
		sameRow("DotMixedN", out[:cap(out)], append([]float64{DotMixed(am, a), DotMixed(am, a)}, nans...))
		dst := poisoned(slices.Clone(am), math.NaN())
		AddWidened(dst, long)
		want := slices.Clone(am)
		addWidenedScalar(want, b)
		sameRow("AddWidened", dst[:cap(dst)], append(want, nans...))
		cu, cv := poisoned(slices.Clone(am), math.NaN()), poisoned(slices.Clone(am), math.NaN())
		MoveComposite(cu, cv, pa)
		wu, wv := slices.Clone(am), slices.Clone(am)
		moveCompositeScalar(wu, wv, a)
		sameRow("MoveComposite (cu)", cu[:cap(cu)], append(wu, nans...))
		sameRow("MoveComposite (cv)", cv[:cap(cv)], append(wv, nans...))
		same("L2SqrU8", float64(L2SqrU8(pau, longU)), float64(fullU))
		same("L2SqrBoundU8", float64(L2SqrBoundU8(pau, longU, fullU/2)), float64(L2SqrBoundU8(au, bu, fullU/2)))
		same("L2SqrBoundU8(max)", float64(L2SqrBoundU8(pau, longU, math.MaxInt32)), float64(fullU))
		if n == 0 {
			continue
		}
		short, shortU := b[:n-1:n-1], bu[:n-1:n-1]
		shortM := am[: n-1 : n-1]
		for name, call := range map[string]func(){
			"Dot":                   func() { Dot(a, short) },
			"L2Sqr":                 func() { L2Sqr(a, short) },
			"L2SqrBound":            func() { L2SqrBound(a, short, full+1) },
			"DotMixed":              func() { DotMixed(am, short) },
			"L2Sqr2 (a)":            func() { L2Sqr2(a, short, b) },
			"L2Sqr2 (b)":            func() { L2Sqr2(a, b, short) },
			"DotMixedN (composite)": func() { DotMixedN([][]float64{am, shortM}, a, make([]float64, 2)) },
			"DotMixedN (out)":       func() { DotMixedN([][]float64{am, am}, a, make([]float64, 1)) },
			"AddWidened":            func() { AddWidened(am, short) },
			"MoveComposite (cu)":    func() { MoveComposite(shortM, am, a) },
			"MoveComposite (cv)":    func() { MoveComposite(am, shortM, a) },
			"L2SqrU8":               func() { L2SqrU8(au, shortU) },
			"L2SqrBoundU8":          func() { L2SqrBoundU8(au, shortU, math.MaxInt32) },
		} {
			if !panics(call) {
				t.Fatalf("len %d: %s with len(b) = len(a)-1 did not panic", n, name)
			}
		}
	}
}

// nans is the poison a buffer from poisoned holds past its length.
var nans = poisoned([]float64(nil), math.NaN())[:16]

// poisoned copies v into a buffer with 16 poison elements after it and
// returns the copy, of len(v) and capacity len(v)+16.
func poisoned[T any](v []T, poison T) []T {
	buf := make([]T, len(v)+16)
	copy(buf, v)
	for i := len(v); i < len(buf); i++ {
		buf[i] = poison
	}
	return buf[:len(v)]
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestU8Bound pins the conversion's safety property: an integer partial
// reaching U8Bound(b) implies its float32 view reaches b, so the integer
// kernel never abandons a candidate the float kernel would have admitted.
func TestU8Bound(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{
		{-1, 0},
		{0, 0},
		{float32(math.NaN()), 0},
		{0.5, 1},
		{1, 1},
		{1.5, 2},
		{65025, 65025},
		{65025.5, 65026},
		{float32(math.MaxInt32), math.MaxInt32},
		{math.MaxFloat32, math.MaxInt32},
		{float32(math.Inf(1)), math.MaxInt32},
	}
	for _, c := range cases {
		if got := U8Bound(c.in); got != c.want {
			t.Fatalf("U8Bound(%g) = %d, want %d", c.in, got, c.want)
		}
	}
	g := testLCG(7)
	for i := 0; i < 10000; i++ {
		bound := float32(g.next()%(1<<26)) / 8
		t32 := U8Bound(bound)
		if float64(t32) < float64(bound) {
			t.Fatalf("U8Bound(%g) = %d below the bound", bound, t32)
		}
		if t32 > 0 && float64(t32-1) >= math.Ceil(float64(bound)) {
			t.Fatalf("U8Bound(%g) = %d is not minimal", bound, t32)
		}
	}
}

// FuzzKernelEquivalence cross-checks every kernel against its scalar
// reference — at every length the input's bytes give, so at every tail
// residue — (and the bounded kernels against the unbounded ones and, for
// float32, against l2SqrBoundRef's partial sums) on
// fuzzer-chosen vectors, lengths and bounds. Wired into the CI fuzz job.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, math.Float32bits(12))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0}, math.Float32bits(1e9))
	f.Fuzz(func(t *testing.T, raw []byte, boundBits uint32) {
		n := len(raw) / 2
		au, bu := raw[:n], raw[n:2*n]
		if got, want := L2SqrU8(au, bu), l2SqrU8Scalar(au, bu); got != want {
			t.Fatalf("L2SqrU8=%d scalar=%d", got, want)
		}
		fullU := L2SqrU8(au, bu)
		boundU := int32(boundBits & math.MaxInt32)
		gotU := L2SqrBoundU8(au, bu, boundU)
		if fullU < boundU && gotU != fullU {
			t.Fatalf("L2SqrBoundU8=%d below bound %d but L2SqrU8=%d", gotU, boundU, fullU)
		}
		if fullU >= boundU && gotU < boundU {
			t.Fatalf("abandoned partial %d below bound %d", gotU, boundU)
		}

		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			// Finite, fraction-bearing floats derived from the raw bytes.
			a[i] = float32(int8(au[i])) / 4
			b[i] = float32(int8(bu[i])) / 4
		}
		if got, want := Dot(a, b), dotScalar(a, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Dot=%x scalar=%x", math.Float32bits(got), math.Float32bits(want))
		}
		full := L2Sqr(a, b)
		if want := l2SqrScalar(a, b); math.Float32bits(full) != math.Float32bits(want) {
			t.Fatalf("L2Sqr=%x scalar=%x", math.Float32bits(full), math.Float32bits(want))
		}
		bound := math.Float32frombits(boundBits)
		got := L2SqrBound(a, b, bound)
		if full < bound && math.Float32bits(got) != math.Float32bits(full) {
			t.Fatalf("L2SqrBound=%x below bound %g but L2Sqr=%x", math.Float32bits(got), bound, math.Float32bits(full))
		}
		if full >= bound && got < bound {
			t.Fatalf("abandoned partial %g below bound %g", got, bound)
		}
		if want := l2SqrBoundRef(a, b, bound); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("L2SqrBound=%x reference=%x at bound %g", math.Float32bits(got), math.Float32bits(want), bound)
		}

		// A float64 composite with a fraction no float32 holds.
		am := make([]float64, n)
		for i := range am {
			am[i] = float64(int8(au[i])) / 3
		}
		if got, want := DotMixed(am, b), dotMixedScalar(am, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DotMixed=%x scalar=%x", math.Float64bits(got), math.Float64bits(want))
		}

		// The batched and writing kernels: up to nine composites (two
		// four-wide groups and a rest), a third float32 vector for L2Sqr2.
		c := make([]float32, n)
		for i := range c {
			c[i] = float32(int8(au[i]^bu[i])) / 8
		}
		gotA, gotB := L2Sqr2(a, b, c)
		if wantA, wantB := l2Sqr2Scalar(a, b, c); math.Float32bits(gotA) != math.Float32bits(wantA) || math.Float32bits(gotB) != math.Float32bits(wantB) {
			t.Fatalf("L2Sqr2=(%x, %x) scalar=(%x, %x)", math.Float32bits(gotA), math.Float32bits(gotB), math.Float32bits(wantA), math.Float32bits(wantB))
		}
		cs := make([][]float64, 1+int(boundBits%9))
		for r := range cs {
			cs[r] = make([]float64, n)
			for i := range cs[r] {
				cs[r][i] = am[i] * float64(r+1) / 7
			}
		}
		gotN, wantN := make([]float64, len(cs)), make([]float64, len(cs))
		DotMixedN(cs, b, gotN)
		dotMixedNScalar(cs, b, wantN)
		for r := range cs {
			if math.Float64bits(gotN[r]) != math.Float64bits(wantN[r]) {
				t.Fatalf("DotMixedN out[%d]=%x scalar=%x", r, math.Float64bits(gotN[r]), math.Float64bits(wantN[r]))
			}
		}
		got0, want0 := slices.Clone(cs[0]), slices.Clone(cs[0])
		gotV, wantV := slices.Clone(am), slices.Clone(am)
		AddWidened(got0, c)
		addWidenedScalar(want0, c)
		MoveComposite(got0, gotV, a)
		moveCompositeScalar(want0, wantV, a)
		for i := 0; i < n; i++ {
			if math.Float64bits(got0[i]) != math.Float64bits(want0[i]) || math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
				t.Fatalf("element %d: AddWidened/MoveComposite gave (%x, %x), scalar (%x, %x)", i,
					math.Float64bits(got0[i]), math.Float64bits(gotV[i]), math.Float64bits(want0[i]), math.Float64bits(wantV[i]))
			}
		}

		if bound > 0 && !math.IsNaN(float64(bound)) {
			if t32 := U8Bound(bound); float64(t32) < float64(bound) && t32 != math.MaxInt32 {
				t.Fatalf("U8Bound(%g) = %d below the bound", bound, t32)
			}
		}
	})
}

func BenchmarkL2Sqr128(b *testing.B) {
	a, c := testVecs(128, 1)
	b.SetBytes(2 * 4 * 128)
	for i := 0; i < b.N; i++ {
		sinkF = L2Sqr(a, c)
	}
}

func BenchmarkL2SqrU8128(b *testing.B) {
	a, c := testVecsU8(128, 1)
	b.SetBytes(2 * 128)
	for i := 0; i < b.N; i++ {
		sinkI = L2SqrU8(a, c)
	}
}

func BenchmarkDot128(b *testing.B) {
	a, c := testVecs(128, 1)
	b.SetBytes(2 * 4 * 128)
	for i := 0; i < b.N; i++ {
		sinkF = Dot(a, c)
	}
}

func BenchmarkDotMixed128(b *testing.B) {
	a, c := testVecsMixed(128, 1)
	b.SetBytes((8 + 4) * 128)
	for i := 0; i < b.N; i++ {
		sinkD = DotMixed(a, c)
	}
}

// BenchmarkDotMixedN scores one sample against N composites in one call,
// as bkm's BestMove does; compare with N × BenchmarkDotMixed128.
func BenchmarkDotMixedN(b *testing.B) {
	for _, m := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			cs, x := testComposites(m, 128, 1)
			out := make([]float64, m)
			b.SetBytes(int64((8*m + 4) * 128))
			for i := 0; i < b.N; i++ {
				DotMixedN(cs, x, out)
			}
			sinkD = out[0]
		})
	}
}

func BenchmarkL2Sqr2128(b *testing.B) {
	x, a := testVecs(128, 1)
	_, c := testVecs(128, 2)
	b.SetBytes(3 * 4 * 128)
	for i := 0; i < b.N; i++ {
		sinkF, _ = L2Sqr2(x, a, c)
	}
}

func BenchmarkMoveComposite128(b *testing.B) {
	cs, x := testComposites(2, 128, 1)
	b.SetBytes((2*8 + 4) * 128)
	for i := 0; i < b.N; i++ {
		MoveComposite(cs[0], cs[1], x)
	}
}

func BenchmarkAddWidened128(b *testing.B) {
	cs, x := testComposites(1, 128, 1)
	b.SetBytes((8 + 4) * 128)
	for i := 0; i < b.N; i++ {
		AddWidened(cs[0], x)
	}
}

// The bound benchmarks give half the full distance as the bound, so the
// kernel abandons part-way, as it does for most candidates of a search.
func BenchmarkL2SqrBound128(b *testing.B) {
	a, c := testVecs(128, 1)
	bound := L2Sqr(a, c) / 2
	b.SetBytes(2 * 4 * 128)
	for i := 0; i < b.N; i++ {
		sinkF = L2SqrBound(a, c, bound)
	}
}

func BenchmarkL2SqrBoundU8128(b *testing.B) {
	a, c := testVecsU8(128, 1)
	bound := L2SqrU8(a, c) / 2
	b.SetBytes(2 * 128)
	for i := 0; i < b.N; i++ {
		sinkI = L2SqrBoundU8(a, c, bound)
	}
}

var (
	sinkD float64
	sinkF float32
	sinkI int32
)
