package splitmix

import "testing"

func TestDeterministic(t *testing.T) {
	a, b := New(42, 7, 3), New(42, 7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identical streams diverged at draw %d", i)
		}
	}
}

func TestSaltsDecorrelate(t *testing.T) {
	// Streams that differ in seed or any salt must not produce the same
	// prefix. (Equality of one draw is possible in principle but has
	// probability 2^-64 per pair.)
	variants := []Stream{
		New(1), New(2), New(1, 0), New(1, 1), New(1, 0, 0), New(1, 0, 1), New(1, 1, 0),
	}
	seen := map[uint64]int{}
	for vi := range variants {
		v := variants[vi]
		first := v.Uint64()
		if prev, dup := seen[first]; dup {
			t.Fatalf("variants %d and %d share first draw %#x", prev, vi, first)
		}
		seen[first] = vi
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	s := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	// Each bucket expects 10000; allow ±5% which is >16 sigma.
	for b, c := range counts {
		if c < draws/n*95/100 || c > draws/n*105/100 {
			t.Fatalf("bucket %d has %d draws, expected ~%d", b, c, draws/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	var sum float64
	const draws = 10000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; mean < 0.47 || mean > 0.53 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(13)
	perm := make([]int, 50)
	for i := range perm {
		perm[i] = i
	}
	s.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[v] = true
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s := New(1)
	s.Intn(0)
}

func TestPerm(t *testing.T) {
	s := New(7)
	p := s.Perm(100)
	if len(p) != 100 {
		t.Fatalf("Perm(100) returned %d elements", len(p))
	}
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
	s2 := New(7)
	p2 := s2.Perm(100)
	for i := range p {
		if p[i] != p2[i] {
			t.Fatalf("Perm not deterministic at %d", i)
		}
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("NormFloat64 mean %f, want ~0", mean)
	}
	if variance < 0.97 || variance > 1.03 {
		t.Errorf("NormFloat64 variance %f, want ~1", variance)
	}
}

// Skip(n) lands where n draws land, whatever the draws were, and Perm(m)
// draws exactly m−1 times: the 2M tree plans each bisection's stream
// position from these two facts.
func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 1000} {
		a, b := New(5, 9), New(5, 9)
		for i := uint64(0); i < n; i++ {
			switch i % 3 {
			case 0:
				a.Uint64()
			case 1:
				a.Intn(int(i) + 1)
			default:
				a.Float64()
			}
		}
		b.Skip(n)
		if a != b {
			t.Fatalf("Skip(%d) does not land where %d draws do", n, n)
		}
	}
	for _, m := range []int{0, 1, 2, 3, 100} {
		a, b := New(7), New(7)
		a.Perm(m)
		b.Skip(uint64(max(m-1, 0)))
		if a != b {
			t.Fatalf("Perm(%d) did not draw exactly %d times", m, max(m-1, 0))
		}
	}
}
