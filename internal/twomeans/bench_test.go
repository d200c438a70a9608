package twomeans

import (
	"testing"

	"gkmeans/internal/dataset"
)

// benchCluster times whole Cluster calls on SIFTLike 2500×128, the corpus of
// the benchmark's offline repetition (go run ./benchmark, cluster-offline).
func benchCluster(b *testing.B, k int) {
	data := dataset.SIFTLike(2500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(data, Config{K: k, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoMeansTree is one tree at the benchmark's operating point
// (ξ=50 ⇒ k=50); BuildGraph grows one per round.
func BenchmarkTwoMeansTree(b *testing.B) { benchCluster(b, 50) }

// BenchmarkTwoMeansNode is a single 2500-member bisection, the root node.
func BenchmarkTwoMeansNode(b *testing.B) { benchCluster(b, 2) }
