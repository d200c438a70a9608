package metrics

import (
	"fmt"
	"math"
)

// An external clustering-quality measure: when ground-truth classes exist
// (e.g. the latent components of a synthetic mixture), NMI quantifies how
// well a predicted clustering recovers them. It complements the paper's
// internal measure (average distortion) in tests.

// contingency builds the k×c co-occurrence table of predicted clusters and
// truth classes, plus the marginals.
func contingency(pred, truth []int) (table map[[2]int]int, predSizes, truthSizes map[int]int, n int, err error) {
	if len(pred) != len(truth) {
		return nil, nil, nil, 0, fmt.Errorf("metrics: %d predictions for %d truths", len(pred), len(truth))
	}
	table = make(map[[2]int]int)
	predSizes = make(map[int]int)
	truthSizes = make(map[int]int)
	for i := range pred {
		table[[2]int{pred[i], truth[i]}]++
		predSizes[pred[i]]++
		truthSizes[truth[i]]++
	}
	return table, predSizes, truthSizes, len(pred), nil
}

// NMI returns the normalized mutual information between a predicted
// clustering and ground-truth classes, in [0,1] (1 = identical partitions
// up to relabelling). Normalisation is by the arithmetic mean of the two
// entropies; degenerate single-cluster cases return 0.
func NMI(pred, truth []int) (float64, error) {
	table, ps, ts, n, err := contingency(pred, truth)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	fn := float64(n)
	var mi float64
	for key, c := range table {
		pxy := float64(c) / fn
		px := float64(ps[key[0]]) / fn
		py := float64(ts[key[1]]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	entropy := func(sizes map[int]int) float64 {
		var h float64
		for _, c := range sizes {
			p := float64(c) / fn
			h -= p * math.Log(p)
		}
		return h
	}
	hp, ht := entropy(ps), entropy(ts)
	if hp == 0 || ht == 0 {
		return 0, nil
	}
	return mi / ((hp + ht) / 2), nil
}
