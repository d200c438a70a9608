package core

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"gkmeans/internal/knngraph"
	"gkmeans/internal/parallel"
	"gkmeans/internal/vec"
)

// refine performs Alg. 3 lines 8–14: exhaustive pairwise comparison within
// each cluster of the current round, updating both endpoints' k-NN lists.
// rounds holds the labels of every round so far, the current one last. Each
// sample belongs to exactly one cluster, so refinement parallelises safely
// across clusters. It returns the distances it computed.
//
// The "visited" check (line 10) spans rounds. Once a pair has been offered
// to both lists, each endpoint either holds the other or has a full list
// whose tail is no farther than their distance; tails never grow, so a later
// offer of the pair changes nothing. A pair that shared a cluster in an
// earlier round is therefore skipped without a look at either list, and
// refinement computes no pair's distance twice in one build. Of the pairs
// left, one both endpoints hold (only the random initial graph links pairs
// that never met) is skipped, one a single endpoint holds reuses the stored
// distance, and a new one is scored once, abandoned as soon as it cannot
// enter either list. Pairs are offered in the order of the plain all-pairs
// scan, so the graph is bit for bit the one that scan makes.
func refine(data *vec.Matrix, g *knngraph.Graph, rounds [][]int32, k, workers int) int64 {
	labels := rounds[len(rounds)-1]
	r := refinement{data: data, g: g, labels: labels, earlier: rounds[:len(rounds)-1]}
	// Each cluster's members in ascending id order, and each sample's
	// position among its cluster's members.
	r.start = make([]int32, k+1)
	for _, l := range labels {
		r.start[l+1]++
	}
	for c := range k {
		r.start[c+1] += r.start[c]
	}
	r.members = make([]int32, len(labels))
	r.slot = make([]int32, len(labels))
	next := slices.Clone(r.start[:k])
	for i, l := range labels {
		r.slot[i] = next[l] - r.start[l]
		r.members[next[l]] = int32(i)
		next[l]++
	}
	var distComps atomic.Int64
	parallel.For(k, workers, func(lo, hi int) {
		s := pairBits{group: make([]int32, k)}
		var comps int64
		for c := lo; c < hi; c++ {
			comps += r.cluster(int32(c), &s)
		}
		distComps.Add(comps)
	})
	return distComps.Load()
}

// refinement is what one round's workers share: the graph, whose lists a
// worker touches only for the members of its own clusters, and the
// clusters themselves, read-only.
type refinement struct {
	data    *vec.Matrix
	g       *knngraph.Graph
	labels  []int32   // this round's cluster of each sample
	earlier [][]int32 // every earlier round's labels
	start   []int32   // cluster c's members are members[start[c]:start[c+1]]
	members []int32
	slot    []int32 // each sample's position among its cluster's members
}

// pairBits is the scratch of one run of clusters. A bit row holds w words
// with one bit per member of the cluster at hand.
type pairBits struct {
	met   []uint64 // per member: who shared a cluster with it in an earlier round
	held  []uint64 // per member: who its list holds
	masks []uint64 // per group of one earlier round: who is in it
	group []int32  // earlier-round label → 1 + its group's row in masks; 0 when unused
}

// cluster refines cluster c and returns the distances it computed.
func (r *refinement) cluster(c int32, s *pairBits) (comps int64) {
	mem := r.members[r.start[c]:r.start[c+1]]
	m := len(mem)
	w := (m + 63) >> 6
	s.met = zeroed(s.met, m*w)
	s.held = zeroed(s.held, m*w)
	s.masks = zeroed(s.masks, m*w)
	// Group the members by their label in each earlier round; a member met
	// everyone in its group. masks and group are all zero between rounds.
	for _, prev := range r.earlier {
		groups := int32(0)
		for p, id := range mem {
			gr := &s.group[prev[id]]
			if *gr == 0 {
				groups++
				*gr = groups
			}
			setBit(s.masks[int(*gr-1)*w:], p)
		}
		for p, id := range mem {
			met := s.met[p*w:][:w]
			for j, word := range s.masks[int(s.group[prev[id]]-1)*w:][:w] {
				met[j] |= word
			}
		}
		for _, id := range mem {
			s.group[prev[id]] = 0
		}
		clear(s.masks[:int(groups)*w])
	}
	for p, id := range mem {
		for _, nb := range r.g.Lists[id] {
			if r.labels[nb.ID] == c {
				setBit(s.held[p*w:], int(r.slot[nb.ID]))
			}
		}
	}

	kappa := r.g.Kappa
	inf := float32(math.Inf(1))
	for a, ia := range mem {
		rowA := r.data.Row(int(ia))
		met, heldA := s.met[a*w:][:w], s.held[a*w:]
		for j := a >> 6; j < w; j++ {
			todo := ^met[j]
			if j == a>>6 {
				todo &= ^uint64(0) << (a & 63) << 1 // members after a
			}
			if j == w-1 && m&63 != 0 {
				todo &= 1<<(m&63) - 1
			}
			for ; todo != 0; todo &= todo - 1 {
				b := j<<6 | bits.TrailingZeros64(todo)
				ib := mem[b]
				inA, inB := hasBit(heldA, b), hasBit(s.held[b*w:], a)
				switch {
				case inA && inB:
				case inA:
					d, _ := r.g.Lookup(int(ia), ib)
					r.offer(s, c, w, b, ia, d)
				case inB:
					d, _ := r.g.Lookup(int(ib), ia)
					r.offer(s, c, w, a, ib, d)
				default:
					// At or past both tails of two full lists, both offers
					// fail, so the kernel may stop once its sum gets there.
					bound := inf
					la, lb := r.g.Lists[ia], r.g.Lists[ib]
					if len(la) == kappa && len(lb) == kappa {
						bound = max(la[kappa-1].Dist, lb[kappa-1].Dist)
					}
					d := vec.L2SqrBound(rowA, r.data.Row(int(ib)), bound)
					comps++
					r.offer(s, c, w, a, ib, d)
					r.offer(s, c, w, b, ia, d)
				}
			}
		}
	}
	return comps
}

// offer inserts id, which the held matrix says is absent, into the list of
// the member at position p, and keeps p's held row in step with the list:
// id joins it, and a tail pushed off it leaves it if it is in cluster c.
func (r *refinement) offer(s *pairBits, c int32, w, p int, id int32, d float32) {
	mem := r.members[r.start[c]:]
	ok, evicted := r.g.InsertAbsent(int(mem[p]), id, d)
	if !ok {
		return
	}
	row := s.held[p*w:]
	setBit(row, int(r.slot[id]))
	if evicted >= 0 && r.labels[evicted] == c {
		clearBit(row, int(r.slot[evicted]))
	}
}

func setBit(row []uint64, q int)      { row[q>>6] |= 1 << (q & 63) }
func clearBit(row []uint64, q int)    { row[q>>6] &^= 1 << (q & 63) }
func hasBit(row []uint64, q int) bool { return row[q>>6]>>(q&63)&1 != 0 }

// zeroed returns b resized to n zero words, reusing its storage when it can.
func zeroed(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}
