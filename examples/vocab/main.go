// Visual vocabulary construction — the workload that motivates the paper's
// introduction (bag-of-visual-words retrieval needs k-means with very large
// k over millions of local descriptors).
//
// This example builds a 1,000-word vocabulary over 20,000 SIFT-like local
// descriptors twice: once with exhaustive boost k-means (the quality
// yardstick, O(n·k·d) per epoch) and once with GK-means (O(n·κ·d) per
// epoch), then compares wall clock and distortion — a miniature of the
// paper's Fig. 6/7 trade-off.
//
// Run with: go run ./examples/vocab
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gkmeans"
	"gkmeans/internal/dataset"
)

func main() {
	data := dataset.SIFTLike(20000, 7)
	k := 1000

	fmt.Printf("building a %d-word visual vocabulary over %d descriptors (d=%d)\n\n",
		k, data.N, data.Dim)

	startG := time.Now()
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(20), gkmeans.WithXi(50), gkmeans.WithTau(6),
		gkmeans.WithMaxIter(20), gkmeans.WithSeed(3), gkmeans.WithClusters(k))
	if err != nil {
		log.Fatal(err)
	}
	gres := idx.Clusters()
	gTime := time.Since(startG)
	gE := gres.Distortion(data)

	startB := time.Now()
	bres, err := gkmeans.BoostKMeans(data, k, gkmeans.WithMaxIter(20), gkmeans.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	bTime := time.Since(startB)
	bE := bres.Distortion(data)

	fmt.Printf("%-14s %12s %12s %10s\n", "method", "time", "distortion", "epochs")
	fmt.Printf("%-14s %12v %12.2f %10d\n", "GK-means", gTime.Round(time.Millisecond), gE, gres.Iters)
	fmt.Printf("%-14s %12v %12.2f %10d\n", "boost k-means", bTime.Round(time.Millisecond), bE, bres.Iters)
	fmt.Printf("\nspeed-up %.1fx at %.1f%% distortion overhead\n",
		float64(bTime)/float64(gTime), 100*(gE-bE)/bE)
	fmt.Printf("GK-means examined %.1f candidate clusters per descriptor (k = %d)\n",
		gres.AvgCandidates, k)

	// Quantise a few "query" descriptors against the vocabulary: the
	// assignment step of a bag-of-words pipeline.
	queries := dataset.SIFTLike(5, 99)
	fmt.Println("\nquantising 5 query descriptors to visual words:")
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		best, bestD := 0, float32(0)
		for w := 0; w < k; w++ {
			d := l2sqr(q, gres.Centroids.Row(w))
			if w == 0 || d < bestD {
				best, bestD = w, d
			}
		}
		fmt.Printf("  query %d -> word %d (dist %.1f)\n", qi, best, bestD)
	}
}

func l2sqr(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
