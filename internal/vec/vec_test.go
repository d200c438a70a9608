package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.N != 3 || m.Dim != 4 || len(m.Data) != 12 {
		t.Fatalf("got shape %d×%d len %d", m.N, m.Dim, len(m.Data))
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for d=0")
		}
	}()
	NewMatrix(3, 0)
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Fatalf("At wrong: %v", m.Data)
	}
	m.Set(0, 1, 9)
	if m.Row(0)[1] != 9 {
		t.Fatalf("Set/Row mismatch")
	}
	m.SetRow(2, []float32{7, 8})
	if m.At(2, 0) != 7 || m.At(2, 1) != 8 {
		t.Fatalf("SetRow failed: %v", m.Row(2))
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.N != 0 {
		t.Fatalf("want empty matrix, got N=%d", m.N)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestSubsetRows(t *testing.T) {
	m := FromRows([][]float32{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	s := m.SubsetRows([]int{3, 1})
	want := FromRows([][]float32{{3, 3}, {1, 1}})
	if !s.Equal(want) {
		t.Fatalf("SubsetRows got %v", s.Data)
	}
}

func TestEqualShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	if a.Equal(b) {
		t.Fatal("matrices of different shapes reported equal")
	}
}

func TestMean(t *testing.T) {
	m := FromRows([][]float32{{0, 0}, {2, 4}, {4, 8}})
	c := m.Mean([]int{0, 1, 2})
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Mean got %v", c)
	}
	z := m.Mean(nil)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Mean of empty set should be zero, got %v", z)
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(130) // cover remainder lengths 0..3
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("n=%d Dot=%v want %v", n, got, want)
		}
	}
}

func TestL2SqrMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(257)
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = rng.Float32() * 10
			b[i] = rng.Float32() * 10
			d := float64(a[i]) - float64(b[i])
			want += d * d
		}
		got := float64(L2Sqr(a, b))
		if math.Abs(got-want) > 1e-2*math.Max(1, want) {
			t.Fatalf("n=%d L2Sqr=%v want %v", n, got, want)
		}
	}
}

// Property: ‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b.
func TestL2SqrDotIdentity(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:half*2]
		for i := range a {
			// clamp to a sane range so float32 error stays bounded
			a[i] = float32(math.Mod(float64(a[i]), 100))
			b[i] = float32(math.Mod(float64(b[i]), 100))
			if math.IsNaN(float64(a[i])) {
				a[i] = 0
			}
			if math.IsNaN(float64(b[i])) {
				b[i] = 0
			}
		}
		lhs := float64(L2Sqr(a, b))
		rhs := float64(SqNorm(a)) + float64(SqNorm(b)) - 2*float64(Dot(a, b))
		scale := math.Max(1, math.Abs(lhs))
		return math.Abs(lhs-rhs) <= 1e-2*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: distances are symmetric and zero on identical inputs.
func TestL2SqrSymmetry(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:half*2]
		for i := range a {
			if math.IsNaN(float64(a[i])) || math.IsInf(float64(a[i]), 0) {
				a[i] = 1
			}
			if math.IsNaN(float64(b[i])) || math.IsInf(float64(b[i]), 0) {
				b[i] = 1
			}
		}
		return L2Sqr(a, b) == L2Sqr(b, a) && L2Sqr(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestRow(t *testing.T) {
	m := FromRows([][]float32{{0, 0}, {10, 10}, {3, 3}})
	i, d := NearestRow(m, []float32{2.9, 3.1})
	if i != 2 {
		t.Fatalf("NearestRow got %d (d=%v)", i, d)
	}
}

func TestNearestRowPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NearestRow(&Matrix{Dim: 2}, []float32{1, 2})
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float32{{3, 4}, {0, 0}})
	n := m.Norms()
	if n[0] != 25 || n[1] != 0 {
		t.Fatalf("Norms got %v", n)
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{3, 4}
	n := Normalize(x)
	if math.Abs(float64(n)-5) > 1e-6 {
		t.Fatalf("returned norm %v", n)
	}
	if math.Abs(float64(SqNorm(x))-1) > 1e-6 {
		t.Fatalf("not unit norm: %v", x)
	}
	z := []float32{0, 0}
	if Normalize(z) != 0 || z[0] != 0 {
		t.Fatal("zero vector should be unchanged")
	}
}

// L2SqrBound must return exactly L2Sqr's value (bit-identical: same
// accumulation order) whenever the true distance is below the bound, and a
// value >= bound when it abandons.
func TestL2SqrBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 63, 64, 65, 100, 128, 960} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32() * 10
			b[i] = rng.Float32() * 10
		}
		exact := L2Sqr(a, b)
		if got := L2SqrBound(a, b, math.MaxFloat32); got != exact {
			t.Fatalf("n=%d: unbounded L2SqrBound %v != L2Sqr %v", n, got, exact)
		}
		if got := L2SqrBound(a, b, exact*2+1); got != exact {
			t.Fatalf("n=%d: loose bound changed result: %v != %v", n, got, exact)
		}
		if got := L2SqrBound(a, b, exact/2); n >= 4 && got < exact/2 {
			t.Fatalf("n=%d: abandoned computation returned %v, below bound %v", n, got, exact/2)
		}
	}
}

// An abandoned computation must actually stop early: time is hard to assert,
// but a bound of zero must return after at most one block regardless of
// dimensionality, and the partial sum it reports must never exceed the
// exact distance is not required — only >= bound.
func TestL2SqrBoundAbandons(t *testing.T) {
	a := make([]float32, 960)
	b := make([]float32, 960)
	for i := range a {
		a[i] = 1
	}
	got := L2SqrBound(a, b, 1)
	if got < 1 {
		t.Fatalf("abandoned sum %v below bound", got)
	}
	// The first check fires after one block: the partial sum is far below
	// the 960 full distance.
	if got >= 960 {
		t.Fatalf("bound 1 over 960 dims returned %v; abandoning should stop after one block", got)
	}
}
