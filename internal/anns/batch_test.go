package anns

import (
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/knngraph"
)

func TestBatchSearchMatchesSequential(t *testing.T) {
	all := dataset.SIFTLike(520, 1)
	data, queries := dataset.Split(all, 20)
	g := knngraph.BruteForce(data, 8, 0)
	s, err := NewSearcher(data, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	batch := BatchSearch(s, queries, 5, 32, 4)
	if len(batch) != queries.N {
		t.Fatalf("got %d result lists", len(batch))
	}
	for qi := 0; qi < queries.N; qi++ {
		seq := s.Search(queries.Row(qi), 5, 32)
		if len(seq) != len(batch[qi]) {
			t.Fatalf("query %d: %d vs %d results", qi, len(batch[qi]), len(seq))
		}
		for j := range seq {
			if seq[j] != batch[qi][j] {
				t.Fatalf("query %d result %d differs: %v vs %v", qi, j, batch[qi][j], seq[j])
			}
		}
	}
}

func TestBatchSearchEmptyQueries(t *testing.T) {
	data := dataset.Uniform(20, 3, 3)
	g := knngraph.BruteForce(data, 3, 0)
	s, _ := NewSearcher(data, g, 4)
	out := BatchSearch(s, dataset.Uniform(1, 3, 4).SubsetRows(nil), 3, 8, 2)
	if len(out) != 0 {
		t.Fatalf("expected no results, got %d", len(out))
	}
}
