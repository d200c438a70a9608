package kmeans

import (
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// The splitmix migration's contract: every clusterer is a pure function of
// (data, config) — same seed means bit-identical labels and centroids
// across repeated runs and across worker counts. These tests would have
// caught a regression to shared or global RNG state immediately.

// runTwice runs fn twice and compares results bit for bit.
func assertDeterministic(t *testing.T, name string, fn func() (*Result, error)) {
	t.Helper()
	a, err := fn()
	if err != nil {
		t.Fatalf("%s: first run: %v", name, err)
	}
	b, err := fn()
	if err != nil {
		t.Fatalf("%s: second run: %v", name, err)
	}
	assertSameResult(t, name, a, b)
}

func assertSameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Labels) != len(b.Labels) {
		t.Fatalf("%s: label counts differ: %d vs %d", name, len(a.Labels), len(b.Labels))
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("%s: labels diverge at sample %d: %d vs %d", name, i, a.Labels[i], b.Labels[i])
		}
	}
	if a.Centroids.N != b.Centroids.N || a.Centroids.Dim != b.Centroids.Dim {
		t.Fatalf("%s: centroid shapes differ", name)
	}
	for i, v := range a.Centroids.Data {
		if v != b.Centroids.Data[i] {
			t.Fatalf("%s: centroids diverge at element %d: %v vs %v", name, i, v, b.Centroids.Data[i])
		}
	}
}

func determinismData() *vec.Matrix {
	return dataset.SIFTLike(600, 42)
}

func TestVariantsDeterministicAcrossRuns(t *testing.T) {
	data := determinismData()
	cfg := Config{K: 12, MaxIter: 15, Seed: 7}
	variants := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Lloyd", func() (*Result, error) { return Lloyd(data, cfg) }},
		{"LloydPlusPlus", func() (*Result, error) {
			c := cfg
			c.PlusPlus = true
			return Lloyd(data, c)
		}},
		{"MiniBatch", func() (*Result, error) { return MiniBatch(data, MiniBatchConfig{Config: cfg, BatchSize: 128}) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { assertDeterministic(t, v.name, v.run) })
	}
}

func TestVariantsWorkerCountIndependent(t *testing.T) {
	data := determinismData()
	type runner func(workers int) (*Result, error)
	variants := []struct {
		name string
		run  runner
	}{
		{"Lloyd", func(w int) (*Result, error) { return Lloyd(data, Config{K: 12, MaxIter: 15, Seed: 7, Workers: w}) }},
		{"MiniBatch", func(w int) (*Result, error) {
			return MiniBatch(data, MiniBatchConfig{Config: Config{K: 12, MaxIter: 15, Seed: 7, Workers: w}, BatchSize: 128})
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			one, err := v.run(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 5} {
				many, err := v.run(w)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, v.name, one, many)
			}
		})
	}
}

func TestSeedsChangeResults(t *testing.T) {
	// Complement of the determinism contract: a different seed must be able
	// to produce a different clustering — guards against the RNG being
	// ignored entirely.
	data := determinismData()
	a, err := Lloyd(data, Config{K: 12, MaxIter: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lloyd(data, Config{K: 12, MaxIter: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical labelings; seed appears unused")
	}
}
