package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gkmeans/internal/dataset"
)

func TestRealMainWritesLabelsAndCentroids(t *testing.T) {
	dir := t.TempDir()
	labels := filepath.Join(dir, "l.ivecs")
	cents := filepath.Join(dir, "c.fvecs")
	const n, k = 400, 12
	err := realMain(context.Background(), []string{
		"-synth", "glove", "-n", "400", "-k", "12", "-kappa", "8", "-xi", "20", "-tau", "2", "-iter", "5",
		"-labels", labels, "-centroids", cents,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(labels)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := dataset.ReadIvecs(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != n {
		t.Fatalf("labels file: %d records, want one of %d labels", len(rows), n)
	}
	for i, l := range rows[0] {
		if l < 0 || l >= k {
			t.Fatalf("label %d of sample %d outside [0,%d)", l, i, k)
		}
	}

	c, err := dataset.LoadFvecsFile(cents, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != k || c.Dim != 100 {
		t.Fatalf("centroids %d×%d, want %d×100 (GloVe-like)", c.N, c.Dim, k)
	}
}

func TestRealMainRejectsBadCombinations(t *testing.T) {
	for _, args := range [][]string{
		{"-synth", "glove", "-n", "100", "-shards", "2"},                                // sharded build without -index
		{"-synth", "glove", "-n", "100", "-routing", "4"},                               // routing without shards
		{"-synth", "glove", "-n", "100", "-k", "0"},                                     // no clusters
		{"-n", "100", "-k", "4"},                                                        // no input
		{"-synth", "nope", "-n", "100", "-k", "4"},                                      // unknown corpus
		{"-synth", "glove", "-n", "100", "-shards", "2", "-index", "x", "-labels", "y"}, // labels from a sharded build
	} {
		if err := realMain(context.Background(), args); err == nil {
			t.Errorf("%q: want an error", args)
		}
	}
}
