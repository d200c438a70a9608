package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNMIPerfectAgreement(t *testing.T) {
	pred := []int{0, 0, 1, 1, 2, 2}
	truth := []int{5, 5, 3, 3, 9, 9} // same partition, different labels
	nmi, err := NMI(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nmi-1) > 1e-9 {
		t.Fatalf("NMI %v, want 1", nmi)
	}
}

func TestNMISingleClusterIsZero(t *testing.T) {
	nmi, err := NMI([]int{0, 0, 0}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if nmi != 0 {
		t.Fatalf("degenerate NMI %v", nmi)
	}
}

func TestNMIRandomIsLow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	pred := make([]int, n)
	truth := make([]int, n)
	for i := range pred {
		pred[i] = rng.Intn(10)
		truth[i] = rng.Intn(10)
	}
	nmi, err := NMI(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi > 0.05 {
		t.Fatalf("random NMI %v should be near 0", nmi)
	}
}

func TestExternalMeasuresLengthMismatch(t *testing.T) {
	if _, err := NMI([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("NMI length mismatch should error")
	}
}

// Properties: NMI is bounded and invariant to consistent relabelling.
func TestExternalMeasuresQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		kp, kt := 1+rng.Intn(6), 1+rng.Intn(6)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(kp)
			truth[i] = rng.Intn(kt)
		}
		nmi, err := NMI(pred, truth)
		if err != nil || nmi < -1e-9 || nmi > 1+1e-9 {
			return false
		}
		// Relabelling invariance: shift every predicted label by 10.
		shifted := make([]int, n)
		for i := range pred {
			shifted[i] = pred[i] + 10
		}
		nmi2, _ := NMI(shifted, truth)
		return math.Abs(nmi-nmi2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNMIEmptyInput(t *testing.T) {
	if nmi, err := NMI(nil, nil); err != nil || nmi != 0 {
		t.Fatalf("empty NMI = %v, %v", nmi, err)
	}
}
