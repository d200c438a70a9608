package gkmeans

import (
	"fmt"
	"sort"
	"sync/atomic"

	"gkmeans/internal/checked"
	"gkmeans/internal/kmeans"
	"gkmeans/internal/router"
	"gkmeans/internal/splitmix"
	"gkmeans/internal/twomeans"
	"gkmeans/internal/vec"
)

// Routed fan-out: a WithRouting build attaches a router.Table of per-shard
// centroids to the index, and SearchNProbe/SearchBatchNProbe use it to
// probe only the nprobe shards whose centroids are closest to a query —
// the IVF-style trade that turns sharding from an implicit work multiplier
// (every shard spends the full ef budget) into a genuine latency win.
//
// Routing changes how Build partitions the data. The unrouted path slices
// rows in input order, which is fine for a broadcast but useless for
// routing when the input order is arbitrary: statistically identical
// shards make every shard equally close to every query, so skipping any of
// them just discards recall. A routed build therefore first groups similar
// rows into the same shard with a two-level clustering pass (the 2M tree,
// then k-means anchors; see routePartition), gathers each group's rows into
// its own shard, and keeps per-shard id maps so external ids still name the
// original input rows (the same machinery a compacted shard uses).

// saltRouting tags the splitmix streams that seed the routing layer —
// the coarse partition and every shard's centroid build — away from the
// graph-construction and clustering streams.
const saltRouting uint64 = 0x524f5554 // "ROUT"

// routePartitionMaxIter caps the anchor k-means pass that groups the
// micro-clusters into shards. The partition only needs shards that are
// spatially coherent, not a converged clustering.
const routePartitionMaxIter = 16

// routeOversample is the micro-cluster multiplier of the two-level
// partition: the data is first cut into up to nShards*routeOversample
// micro-clusters by the 2M tree, and whole micro-clusters are then grouped
// into shards. 64 puts the micro resolution at the latent-cluster scale of
// the bench corpora (≈250 mixture components at 50k rows), where the
// partition captures >99% of true 10-NN mass in the top-2 routed shards;
// 16 left micro-clusters spanning several latent clusters and a ~2% recall
// gap.
const routeOversample = 64

// routeSlackNum/routeSlackDen is the shard capacity slack of the balanced
// grouping (11/10 = 10%): no shard accepts micro-clusters past
// ceil(N·slack/nShards) rows, so spatial preference can never collapse
// the partition into one mega-shard (whose ef-bounded graph search would
// tank recall for every query).
const (
	routeSlackNum = 11
	routeSlackDen = 10
)

// routingSeed derives the deterministic seed of one shard's centroid
// build from the index seed, the shard's build generation and its slot, so
// Build, Append and Compact shards all get stable, decorrelated streams.
func routingSeed(seed int64, gen uint64, slot int) int64 {
	s := splitmix.New(seed, saltRouting, gen, uint64(slot))
	return s.Int63()
}

// partitionSeed derives the seed of one partition level. The salt layout
// (two salts vs routingSeed's three) keeps both levels distinct from every
// routingSeed stream.
func partitionSeed(seed int64, level uint64) int64 {
	s := splitmix.New(seed, saltRouting, level)
	return s.Int63()
}

// probeStats counts the queries an index answered and the segment searches
// they cost. Every index has one, and the pointer is shared across
// copy-on-write mutations (Append/Delete/Compact successors), so serving
// layers see monotone counters across index swaps. It also keeps the work
// totals of the segments Compact retired, which no successor holds.
type probeStats struct {
	queries    atomic.Uint64 // queries answered
	probed     atomic.Uint64 // segment searches actually executed
	routed     atomic.Uint64 // queries where routing skipped >= 1 segment
	routeComps atomic.Uint64 // centroid distance computations spent ranking

	retiredComps    atomic.Uint64 // distance computations of retired segments
	retiredExpanded atomic.Uint64 // candidate expansions of retired segments
}

// retire folds the search work of a segment Compact is dropping into the
// shared totals, so SearchStats never falls when the segment goes.
func (p *probeStats) retire(s *seg) {
	if sr := s.searcher.Load(); sr != nil {
		_, d, e := sr.Totals()
		p.retiredComps.Add(d)
		p.retiredExpanded.Add(e)
	}
}

// note records one query that searched np of total segments, spending
// comps centroid distance computations on ranking (0 on the full fan-out,
// which skips the router entirely).
func (p *probeStats) note(np, total, comps int) {
	p.queries.Add(1)
	p.probed.Add(uint64(np))
	if np < total {
		p.routed.Add(1)
		p.routeComps.Add(uint64(comps))
	}
}

// Routed reports whether the index carries a shard router (WithRouting).
func (x *Index) Routed() bool { return x.route != nil }

// RoutingCentroids returns the configured routing centroids per shard, or
// 0 for an unrouted index.
func (x *Index) RoutingCentroids() int {
	if x.route == nil {
		return 0
	}
	return x.route.K()
}

// resolveNProbe resolves a per-call nprobe against the index: a positive
// value below the segment count on a routed index probes that many
// segments; anything else means "probe every segment" — the path that stays
// bit-identical to the unrouted full fan-out.
func (x *Index) resolveNProbe(nprobe int) int {
	if n := len(x.segs); x.route == nil || nprobe <= 0 || nprobe >= n {
		return n
	}
	return nprobe
}

// routePartition groups the rows of data into nShards spatially coherent,
// size-balanced groups: groups[s] lists the original row indices of shard
// s, each ascending. The partition is two-level — a micro-clustering pass
// (up to nShards*routeOversample centres) followed by a balanced grouping
// of whole micro-clusters onto nShards k-means anchors.
//
// The micro level is the paper's own large-k clusterer, not Lloyd: Alg. 1's
// 2M tree cuts the data into k1 equal-size leaves, then one nearest-centre
// pass from the leaf means (kmeans.Lloyd from InitLabels, one iteration)
// moves every row to its closest leaf. Equal-size leaves used as they are
// straddle the borders of dense blobs: on 12000×128 bytes at k1=256 they
// read nprobe-2 recall@10 of 0.90–0.94, and 0.988–0.990 after the pass.
// Tree and pass take 0.35–0.40 s there (2 vCPUs), a tenth of k-means++
// Lloyd run to convergence, for the same recall within 0.01.
//
// The shard level groups whole micro-clusters: a single coarse
// K=nShards pass assigns every row independently, so each dense
// neighbourhood near a boundary is split across shards and its queries
// lose recall under routing; grouping whole micro-clusters moves the cuts
// to micro-cluster borders instead. The grouping is capacity-capped
// (routeSlack) because a plain k-means over the micro-centroids is blind
// to cluster mass and can drop nearly the whole corpus into one shard.
// Every group is finally repaired up to minShardRows (stealing from the
// largest group, deterministically) so each shard can carry a graph.
// Deterministic at any worker count.
func routePartition(data *Matrix, cfg config, nShards int) ([][]int, error) {
	k1 := nShards * routeOversample
	if max := data.N / minShardRows; k1 > max {
		k1 = max
	}
	if k1 < nShards {
		k1 = nShards
	}
	seed := partitionSeed(cfg.seed, 0)
	leaves, err := twomeans.Cluster(data, twomeans.Config{K: k1, Seed: seed, Workers: cfg.workers})
	if err != nil {
		return nil, fmt.Errorf("gkmeans: routing partition: %w", err)
	}
	micro, err := kmeans.Lloyd(data, kmeans.Config{
		K:          k1,
		MaxIter:    1,
		Seed:       seed,
		Workers:    cfg.workers,
		InitLabels: leaves,
	})
	if err != nil {
		return nil, fmt.Errorf("gkmeans: routing partition: %w", err)
	}
	shardOf := make([]int, k1)
	if k1 == nShards {
		for c := range shardOf {
			shardOf[c] = c
		}
	} else {
		anchors, err := kmeans.Lloyd(micro.Centroids, kmeans.Config{
			K:        nShards,
			MaxIter:  routePartitionMaxIter,
			Seed:     partitionSeed(cfg.seed, 1),
			Workers:  cfg.workers,
			PlusPlus: true,
		})
		if err != nil {
			return nil, fmt.Errorf("gkmeans: routing partition (grouping): %w", err)
		}
		assignBalanced(shardOf, micro, anchors.Centroids, data.N, nShards)
	}
	groups := make([][]int, nShards)
	for i, l := range micro.Labels {
		groups[shardOf[l]] = append(groups[shardOf[l]], i)
	}
	for s := range groups {
		for len(groups[s]) < minShardRows {
			donor := -1
			for t := range groups {
				if t == s || len(groups[t]) <= minShardRows {
					continue
				}
				if donor < 0 || len(groups[t]) > len(groups[donor]) {
					donor = t
				}
			}
			if donor < 0 {
				// Unreachable: clampShards guarantees minShardRows rows per
				// shard exist in total.
				return nil, fmt.Errorf("gkmeans: routing partition cannot fill shard %d to %d rows", s, minShardRows)
			}
			g := groups[donor]
			groups[s] = append(groups[s], g[len(g)-1])
			groups[donor] = g[:len(g)-1]
		}
		sort.Ints(groups[s])
	}
	return groups, nil
}

// assignBalanced fills shardOf, mapping each of micro's clusters to the
// nearest anchor that still has row capacity. Micro-clusters are placed in
// order of decreasing assignment confidence (gap between their best and
// second-best anchor), so the contested ones — which any shard suits about
// equally — are the ones redirected when a popular anchor fills up. A
// cluster finding every shard full lands on the least-loaded one. Every
// step breaks ties on the lowest index, so the assignment is deterministic
// at any worker count.
func assignBalanced(shardOf []int, micro *kmeans.Result, anchors *Matrix, nRows, nShards int) {
	k1 := len(shardOf)
	sizes := make([]int, k1)
	for _, l := range micro.Labels {
		sizes[l]++
	}
	dists := make([][]float32, k1)
	margin := make([]float32, k1)
	for c := 0; c < k1; c++ {
		d := make([]float32, nShards)
		best, second := float32(0), float32(0)
		for s := 0; s < nShards; s++ {
			d[s] = vec.L2Sqr(micro.Centroids.Row(c), anchors.Row(s))
			switch {
			case s == 0:
				best, second = d[s], d[s]
			case d[s] < best:
				best, second = d[s], best
			case s == 1 || d[s] < second:
				second = d[s]
			}
		}
		dists[c] = d
		margin[c] = second - best
	}
	order := make([]int, k1)
	for c := range order {
		order[c] = c
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if margin[a] != margin[b] {
			return margin[a] > margin[b]
		}
		return a < b
	})
	capacity := (nRows*routeSlackNum + routeSlackDen*nShards - 1) / (routeSlackDen * nShards)
	load := make([]int, nShards)
	for _, c := range order {
		best := -1
		for s := 0; s < nShards; s++ {
			if load[s]+sizes[c] > capacity {
				continue
			}
			if best < 0 || dists[c][s] < dists[c][best] {
				best = s
			}
		}
		if best < 0 {
			for s := 0; s < nShards; s++ {
				if best < 0 || load[s] < load[best] {
					best = s
				}
			}
		}
		shardOf[c] = best
		load[best] += sizes[c]
	}
}

// routedLayout is the WithRouting half of build's segment layout:
// coarse-partition the rows into nShards spatially coherent groups and
// return each group's rows, gathered into a store of their own, with the
// group's original row indices as its id map — so result id i always names
// row i of the matrix the caller passed to Build. The partition runs over a
// transient widened copy of a byte dataset, and its 2M tree gathers node
// rows into one more n·d·4 B scratch (6 MB at 12000×128); the gathered
// shard rows keep the caller's element type.
func routedLayout(data vec.Rows, cfg config, nShards int) ([]vec.Rows, [][]int32, error) {
	groups, err := routePartition(data.Widen(), cfg, nShards)
	if err != nil {
		return nil, nil, err
	}
	parts, idmaps := make([]vec.Rows, nShards), make([][]int32, nShards)
	for s, g := range groups {
		parts[s] = data.Subset(g)
		idmaps[s] = make([]int32, len(g))
		for i, src := range g {
			idmaps[s][i] = checked.Int32(src)
		}
	}
	return parts, idmaps, nil
}

// routingCentroids computes the cfg.routing routing centroids of one
// segment's rows (widened transiently when they are bytes), seeded by the
// segment's build generation and its slot in the segment list.
func routingCentroids(rows vec.Rows, cfg config, gen uint64, slot int) (*Matrix, error) {
	m, err := router.BuildShard(rows.Widen(), cfg.routing, routingSeed(cfg.seed, gen, slot), cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: routing centroids for segment %d: %w", slot, err)
	}
	return m, nil
}
