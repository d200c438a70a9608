package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gkmeans"
	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
)

func TestRealMainWritesLabelsAndCentroids(t *testing.T) {
	dir := t.TempDir()
	labels := filepath.Join(dir, "l.ivecs")
	cents := filepath.Join(dir, "c.fvecs")
	graph := filepath.Join(dir, "g.knn")
	index := filepath.Join(dir, "i.gkx")
	const n, k = 400, 12
	err := realMain(context.Background(), []string{
		"-synth", "glove", "-n", "400", "-k", "12", "-kappa", "8", "-xi", "20", "-tau", "2", "-iter", "5",
		"-labels", labels, "-centroids", cents, "-graph", graph, "-index", index,
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

	// The .knn file and the .gkx index hold the same graph.
	gf, err := os.Open(graph)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	g, err := knngraph.Read(gf)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := gkmeans.LoadIndex(index)
	if err != nil {
		t.Fatal(err)
	}
	want := idx.Graph()
	if g.Kappa != want.Kappa || g.N() != n || want.N() != n {
		t.Fatalf(".knn graph %d nodes κ=%d, index graph %d nodes κ=%d, want %d nodes", g.N(), g.Kappa, want.N(), want.Kappa, n)
	}
	for i := range g.Lists {
		if !slices.Equal(g.Lists[i], want.Lists[i]) {
			t.Fatalf("node %d: .knn list %v, index list %v", i, g.Lists[i], want.Lists[i])
		}
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
