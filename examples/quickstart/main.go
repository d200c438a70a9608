// Quickstart: one gkmeans.Index serving clustering, concurrent ANN search
// and persistence — the walkthrough for the unified API.
//
// The paper's central artefact is a single k-NN graph (Alg. 3) that both
// accelerates k-means (Alg. 2) and answers sub-millisecond ANN queries
// (§4.3). The Index type bundles that artefact with its dataset: build it
// once, then cluster, search from any goroutine, and save it to disk.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"gkmeans"
	"gkmeans/internal/dataset"
)

func main() {
	// SIFT-like synthetic descriptors: 5,000 samples, 128 dimensions.
	data := dataset.SIFTLike(5000, 42)
	k := 200

	// Build the index: the k-NN graph plus (via WithClusters) a clustering.
	// The context cancels cleanly between graph rounds and epochs — wire it
	// to signal.NotifyContext in a real service.
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(20), // graph neighbours per sample
		gkmeans.WithXi(50),    // refinement cluster size during construction
		gkmeans.WithTau(8),    // graph construction rounds
		gkmeans.WithMaxIter(30),
		gkmeans.WithSeed(1),
		gkmeans.WithClusters(k),
	)
	if err != nil {
		log.Fatal(err)
	}
	res := idx.Clusters()

	fmt.Printf("clustered %d samples into %d clusters\n", idx.N(), k)
	fmt.Printf("  graph construction: %v\n", idx.GraphTime())
	fmt.Printf("  2M-tree init:       %v\n", res.InitTime)
	fmt.Printf("  optimisation:       %v (%d epochs)\n", res.IterTime, res.Iters)
	fmt.Printf("  average distortion: %.2f\n", res.Distortion(data))
	fmt.Printf("  candidate clusters examined per sample: %.1f of k=%d\n",
		res.AvgCandidates, k)

	// Cluster size distribution.
	sizes := make([]int, k)
	for _, l := range res.Labels {
		sizes[l]++
	}
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	fmt.Printf("  cluster sizes: min=%d avg=%d max=%d\n", min, idx.N()/k, max)

	// The same index answers nearest-neighbour queries — concurrently, no
	// per-goroutine searcher plumbing needed.
	var wg sync.WaitGroup
	hits := make([][]gkmeans.Neighbor, 4)
	for g := range hits {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hits[g] = idx.Search(data.Row(g), 5, 32)
		}(g)
	}
	wg.Wait()
	for _, nb := range hits[0] {
		fmt.Printf("  neighbour of sample 0: id=%d dist=%.1f cluster=%d\n",
			nb.ID, nb.Dist, res.Labels[nb.ID])
	}

	// Persist the whole index — dataset, graph and clustering — and load it
	// back; the loaded index answers queries identically.
	dir, err := os.MkdirTemp("", "gkmeans-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "quickstart.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		log.Fatal(err)
	}
	loaded, err := gkmeans.LoadIndex(path)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("  index saved to %s (%.1f MiB) and loaded: %d samples, k=%d\n",
		filepath.Base(path), float64(st.Size())/(1<<20), loaded.N(), loaded.Clusters().K)
	again := loaded.Search(data.Row(0), 5, 32)
	fmt.Printf("  loaded-index search matches: %v\n", again[0] == hits[0][0])
}
