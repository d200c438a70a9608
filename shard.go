package gkmeans

// Segment layout of a build: WithShards(n) partitions the dataset into n
// contiguous row ranges and Build makes one segment per range. The segment
// datasets are views into the parent matrix (no copies), and a result id
// is remapped from segment-local to global by adding the segment's base row
// — so a many-segment index is observably the same as a one-segment one up
// to approximation quality, while each graph build only ever holds one
// segment in flight and every query can use one core per segment.

// minShardRows is the smallest segment Build will create: a k-NN graph
// needs at least two samples (a single-row segment has no possible
// neighbour).
const minShardRows = 2

// clampShards resolves a requested shard count against the dataset size:
// every shard must keep at least minShardRows rows, a request of <=1 (or a
// dataset too small to split) means one segment, and the count never
// exceeds what the persistence segment table accepts — Build must not
// produce an index that SaveIndex writes but LoadIndex refuses.
func clampShards(requested, n int) int {
	if requested <= 1 {
		return 1
	}
	if requested > maxShardSegments {
		requested = maxShardSegments
	}
	if max := n / minShardRows; requested > max {
		requested = max
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// shardBounds returns the global row range [lo, hi) of shard s out of
// total: the even contiguous split floor(s·n/total). It is the single
// source of truth for the unrouted partition.
func shardBounds(s, total, n int) (lo, hi int) {
	return s * n / total, (s + 1) * n / total
}

// shardView returns rows [lo, hi) of m as a view aliasing m's storage.
func shardView(m *Matrix, lo, hi int) *Matrix {
	return &Matrix{Data: m.Data[lo*m.Dim : hi*m.Dim : hi*m.Dim], N: hi - lo, Dim: m.Dim}
}
