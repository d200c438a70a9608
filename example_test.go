package gkmeans_test

// Runnable documentation: every Example below executes under `go test`
// (CI runs `go test -run Example ./...` in the docs job), so the code and
// output shown on pkg.go.dev can never drift from what the library does.
// The corpus is tiny and fully deterministic — each query is an exact copy
// of an indexed vector, so its nearest neighbour is itself at distance 0
// regardless of graph-construction details.

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gkmeans"
)

// exampleVectors builds a small deterministic corpus: n distinct 4-d
// vectors with no randomness, so example output is stable.
func exampleVectors(n int) *gkmeans.Matrix {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = []float32{
			float32(i),
			float32((i * i) % 97),
			float32((i * 31) % 61),
			float32(i % 7),
		}
	}
	return gkmeans.FromRows(rows)
}

func ExampleBuild() {
	data := exampleVectors(200)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8),    // graph neighbours per sample
		gkmeans.WithTau(4),      // construction rounds
		gkmeans.WithSeed(1),     // deterministic build
		gkmeans.WithClusters(4)) // also cluster while we're at it
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors of dim %d\n", idx.N(), idx.Dim())
	fmt.Printf("graph holds up to %d neighbours per sample\n", idx.Graph().Kappa)
	fmt.Printf("clustered into k=%d\n", idx.Clusters().K)
	// Output:
	// indexed 200 vectors of dim 4
	// graph holds up to 8 neighbours per sample
	// clustered into k=4
}

func ExampleIndex_Search() {
	data := exampleVectors(200)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithTau(4), gkmeans.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	// The query is an exact copy of sample 42, so the closest neighbour is
	// sample 42 itself at squared distance 0.
	query := data.Row(42)
	neighbors := idx.Search(query, 3, 64) // top-3, candidate pool ef=64
	fmt.Printf("closest id=%d dist=%.0f\n", neighbors[0].ID, neighbors[0].Dist)
	fmt.Printf("returned %d neighbours in ascending distance\n", len(neighbors))
	// Output:
	// closest id=42 dist=0
	// returned 3 neighbours in ascending distance
}

func ExampleIndex_SearchBatch() {
	data := exampleVectors(200)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithTau(4), gkmeans.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	// Three queries answered concurrently, one sorted result list each.
	queries := gkmeans.FromRows([][]float32{data.Row(7), data.Row(63), data.Row(127)})
	results := idx.SearchBatch(queries, 2, 64)
	for i, res := range results {
		fmt.Printf("query %d: closest id=%d dist=%.0f\n", i, res[0].ID, res[0].Dist)
	}
	// Output:
	// query 0: closest id=7 dist=0
	// query 1: closest id=63 dist=0
	// query 2: closest id=127 dist=0
}

func ExampleLoadIndex() {
	data := exampleVectors(200)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithTau(4), gkmeans.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	// SaveIndex writes the versioned .gkx container atomically; LoadIndex
	// returns an index that answers searches identically to the saved one.
	dir, err := os.MkdirTemp("", "gkx-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "example.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		log.Fatal(err)
	}
	loaded, err := gkmeans.LoadIndex(path)
	if err != nil {
		log.Fatal(err)
	}
	res := loaded.Search(data.Row(9), 1, 32)
	fmt.Printf("loaded %d×%d, closest to query: id=%d dist=%.0f\n",
		loaded.N(), loaded.Dim(), res[0].ID, res[0].Dist)
	// Output:
	// loaded 200×4, closest to query: id=9 dist=0
}

// Sharded build: WithShards(n) partitions the dataset into n independently
// built sub-indexes; Search fans out across them and merges the per-shard
// top-k, so results carry global ids exactly like a monolithic index.
func ExampleBuild_sharded() {
	data := exampleVectors(200)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithShards(4),
		gkmeans.WithKappa(8), gkmeans.WithTau(4), gkmeans.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	// Sample 150 lives in the last shard; the merged result still reports
	// its global id.
	res := idx.Search(data.Row(150), 3, 64)
	fmt.Printf("shards=%d\n", idx.Shards())
	fmt.Printf("closest id=%d dist=%.0f\n", res[0].ID, res[0].Dist)
	fmt.Printf("stats aggregate across shards: queries=%d\n", idx.SearchStats().Queries)
	// Output:
	// shards=4
	// closest id=150 dist=0
	// stats aggregate across shards: queries=1
}

// The k-NN graph is the expensive part of an index; Cluster reuses it, so
// sweeping the number of clusters pays for the graph once.
func ExampleIndex_Cluster() {
	data := exampleVectors(200)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithTau(4), gkmeans.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range []int{2, 5, 10} {
		res, err := idx.Cluster(context.Background(), k, gkmeans.WithSeed(2))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%d: %d labels, %d centroids, index's own graph: %t\n",
			k, len(res.Labels), res.Centroids.N, res.Graph == idx.Graph())
	}
	// Output:
	// k=2: 200 labels, 2 centroids, index's own graph: true
	// k=5: 200 labels, 5 centroids, index's own graph: true
	// k=10: 200 labels, 10 centroids, index's own graph: true
}

// Each sample's list in the k-NN graph holds its closest samples, so
// finding duplicates is one pass over the graph's edges instead of an
// all-pairs scan.
func ExampleIndex_Graph() {
	data := exampleVectors(200)
	rows := make([][]float32, 0, data.N+1)
	for i := range data.N {
		rows = append(rows, data.Row(i))
	}
	rows = append(rows, data.Row(42)) // sample 200 duplicates sample 42
	idx, err := gkmeans.Build(context.Background(), gkmeans.FromRows(rows),
		gkmeans.WithKappa(8), gkmeans.WithTau(4), gkmeans.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	seen := map[[2]int32]bool{} // an edge may be stored in both lists
	for i, list := range idx.Graph().Lists {
		for _, nb := range list {
			pair := [2]int32{min(int32(i), nb.ID), max(int32(i), nb.ID)}
			if nb.Dist == 0 && !seen[pair] {
				seen[pair] = true
				fmt.Printf("duplicates: %d and %d\n", pair[0], pair[1])
			}
		}
	}
	// Output:
	// duplicates: 42 and 200
}
