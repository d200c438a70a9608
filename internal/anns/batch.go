package anns

import (
	"gkmeans/internal/knngraph"
	"gkmeans/internal/parallel"
	"gkmeans/internal/vec"
)

// BatchSearch answers every query concurrently and returns one result list
// per query. workers <= 0 selects GOMAXPROCS. The flat CSR adjacency is
// built once in NewSearcher and shared read-only across workers; per-query
// scratch is recycled through the searcher's pool.
//
//gk:hotpath
func BatchSearch(s *Searcher, queries *vec.Matrix, topK, ef, workers int) [][]knngraph.Neighbor {
	out := make([][]knngraph.Neighbor, queries.N)
	parallel.For(queries.N, workers, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			out[qi] = s.Search(queries.Row(qi), topK, ef)
		}
	})
	return out
}
