// Package knngraph implements the approximate k-nearest-neighbour graph that
// drives GK-means (paper §4): a bounded, sorted neighbour list per node, a
// brute-force exact builder used for ground truth, random initialisation
// (Alg. 3 line 4), and binary (de)serialisation.
package knngraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"gkmeans/internal/checked"
	"gkmeans/internal/parallel"
	"gkmeans/internal/splitmix"
	"gkmeans/internal/vec"
)

// Neighbor is one entry of a k-NN list.
type Neighbor struct {
	ID   int32   // index of the neighbouring sample
	Dist float32 // squared Euclidean distance
}

// Graph is an approximate k-NN graph over n samples. Lists[i] holds up to
// Kappa neighbours of sample i sorted by ascending distance, never including
// i itself, with unique IDs.
type Graph struct {
	Lists [][]Neighbor
	Kappa int
}

// New allocates a graph with n empty lists of capacity kappa.
func New(n, kappa int) *Graph {
	if n < 0 || kappa <= 0 {
		panic(fmt.Sprintf("knngraph: invalid graph shape n=%d kappa=%d", n, kappa))
	}
	g := &Graph{Lists: make([][]Neighbor, n), Kappa: kappa}
	for i := range g.Lists {
		g.Lists[i] = make([]Neighbor, 0, kappa)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Lists) }

// Insert offers neighbour (id, dist) to node i's bounded list. It returns
// true when the list changed. The list stays sorted by ascending distance,
// capped at Kappa entries; an id already present is ignored (the "visited"
// check of Alg. 3 — an edge is never scored twice), as are self-edges.
func (g *Graph) Insert(i int, id int32, dist float32) bool {
	if i == int(id) {
		return false
	}
	list := g.Lists[i]
	if len(list) == g.Kappa && dist >= list[len(list)-1].Dist {
		return false
	}
	// Find insertion point and reject duplicates along the way. Lists are
	// at most a few dozen entries, so linear scan beats binary search plus a
	// separate duplicate pass.
	pos := len(list)
	for j, nb := range list {
		if nb.ID == id {
			return false
		}
		if dist < nb.Dist && pos == len(list) {
			pos = j
		}
	}
	if len(list) < g.Kappa {
		list = append(list, Neighbor{})
	}
	copy(list[pos+1:], list[pos:len(list)-1])
	list[pos] = Neighbor{ID: id, Dist: dist}
	g.Lists[i] = list
	return true
}

// InsertAbsent is Insert for an id the caller knows is neither in node i's
// list nor i itself, so it skips the duplicate scan. It lands where Insert
// would and also reports the neighbour it pushed off a full list's tail, or
// -1 when it evicted none (the list had room, or the offer was rejected).
func (g *Graph) InsertAbsent(i int, id int32, dist float32) (inserted bool, evicted int32) {
	list := g.Lists[i]
	evicted = -1
	if len(list) == g.Kappa {
		if dist >= list[len(list)-1].Dist {
			return false, -1
		}
		evicted = list[len(list)-1].ID
	} else {
		list = append(list, Neighbor{})
	}
	// Shift farther entries back from the tail; ties stay ahead of the new
	// entry, as in Insert.
	pos := len(list) - 1
	for ; pos > 0 && dist < list[pos-1].Dist; pos-- {
		list[pos] = list[pos-1]
	}
	list[pos] = Neighbor{ID: id, Dist: dist}
	g.Lists[i] = list
	return true, evicted
}

// Contains reports whether id is in node i's list.
func (g *Graph) Contains(i int, id int32) bool {
	for _, nb := range g.Lists[i] {
		if nb.ID == id {
			return true
		}
	}
	return false
}

// Lookup returns the stored distance to id in node i's list, if present.
// Graph refinement uses it to avoid re-scoring an edge one endpoint already
// holds.
func (g *Graph) Lookup(i int, id int32) (float32, bool) {
	for _, nb := range g.Lists[i] {
		if nb.ID == id {
			return nb.Dist, true
		}
	}
	return 0, false
}

// Recall returns the fraction of nodes whose true nearest neighbour (the
// first entry of the exact graph) appears anywhere in this graph's list —
// the "average recall (top-1)" of the paper's evaluation protocol (§5.1).
// Nodes with an empty exact list are skipped.
func (g *Graph) Recall(exact *Graph) float64 {
	if exact.N() != g.N() {
		panic(fmt.Sprintf("knngraph: recall against graph of different size %d vs %d", exact.N(), g.N()))
	}
	hits, total := 0, 0
	for i, list := range exact.Lists {
		if len(list) == 0 {
			continue
		}
		total++
		if g.Contains(i, list[0].ID) {
			hits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.N(), g.Kappa)
	for i, list := range g.Lists {
		out.Lists[i] = append(out.Lists[i], list...)
	}
	return out
}

// saltRandom tags the per-node splitmix streams of Random so they never
// collide with other derivations from the same seed.
const saltRandom uint64 = 0x52414e44 // "RAND"

// Random fills a graph with kappa random distinct neighbours per node and
// their true distances — the initial graph of Alg. 3 (line 4). It runs on
// GOMAXPROCS workers; use RandomN to bound parallelism.
func Random(data *vec.Matrix, kappa int, seed int64) *Graph {
	g, _ := RandomN(data, kappa, seed, 0)
	return g
}

// RandomN is Random on up to workers goroutines (<=0 selects GOMAXPROCS),
// also returning the number of distance computations performed. Each node
// draws its neighbours from its own splitmix stream derived from (seed,
// node), so the result is identical for every worker count.
func RandomN(data *vec.Matrix, kappa int, seed int64, workers int) (*Graph, int64) {
	n := data.N
	if kappa >= n {
		kappa = n - 1
	}
	if kappa <= 0 {
		panic("knngraph: Random needs at least 2 samples")
	}
	g := New(n, kappa)
	var distComps atomic.Int64
	parallel.For(n, workers, func(lo, hi int) {
		var comps int64
		for i := lo; i < hi; i++ {
			rng := splitmix.New(seed, saltRandom, uint64(i))
			for len(g.Lists[i]) < kappa {
				j := checked.Int32(rng.Intn(n))
				if int(j) == i {
					continue
				}
				// A duplicate draw is rejected by Insert, but the distance
				// was computed either way.
				g.Insert(i, j, vec.L2Sqr(data.Row(i), data.Row(int(j))))
				comps++
			}
		}
		distComps.Add(comps)
	})
	return g, distComps.Load()
}

// BruteForce builds the exact k-NN graph by exhaustive pairwise comparison,
// parallelised across nodes. It is O(d·n²): only used for ground truth on
// small inputs (the paper reports >20 h for exact SIFT1M ground truth).
func BruteForce(data *vec.Matrix, kappa int, workers int) *Graph {
	n := data.N
	if kappa >= n {
		kappa = n - 1
	}
	g := New(n, kappa)
	parallel.For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := data.Row(i)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				g.Insert(i, checked.Int32(j), vec.L2Sqr(row, data.Row(j)))
			}
		}
	})
	return g
}

// Validate checks the structural invariants of the graph (lists within
// Kappa, ids in range, no self-loops, unique ids, sorted lists — checked in
// that order per node). Tests and the property suite call it after every
// mutation-heavy operation, and Read before it returns a graph.
func (g *Graph) Validate() error {
	n := g.N()
	// mark[id] == i+1 says node i's list already holds id.
	mark := make([]int32, n)
	for i, list := range g.Lists {
		if len(list) > g.Kappa {
			return fmt.Errorf("node %d has %d neighbours, cap %d", i, len(list), g.Kappa)
		}
		stamp := checked.Int32(i + 1)
		for j, nb := range list {
			if int(nb.ID) < 0 || int(nb.ID) >= n {
				return fmt.Errorf("node %d neighbour %d id %d out of range", i, j, nb.ID)
			}
			if int(nb.ID) == i {
				return fmt.Errorf("node %d has a self-loop", i)
			}
			if mark[nb.ID] == stamp {
				return fmt.Errorf("node %d has duplicate neighbour %d", i, nb.ID)
			}
			mark[nb.ID] = stamp
			if j > 0 && list[j-1].Dist > nb.Dist {
				return fmt.Errorf("node %d list not sorted at %d", i, j)
			}
		}
	}
	return nil
}

const graphMagic = uint32(0x474b4e4e) // "GKNN"

// Write serialises the graph in a compact little-endian binary format: a
// header of three uint32 words (magic, node count, κ), then per node a
// uint32 list length and that many {int32 id, float32 dist} pairs.
func (g *Graph) Write(w io.Writer) error {
	buf := make([]byte, 0, ioChunk)
	buf = binary.LittleEndian.AppendUint32(buf, graphMagic)
	buf = binary.LittleEndian.AppendUint32(buf, checked.U32(g.N()))
	buf = binary.LittleEndian.AppendUint32(buf, checked.U32(g.Kappa))
	for _, list := range g.Lists {
		// Flush before a list that might not fit; a list longer than the
		// buffer just grows it for one write.
		if len(buf)+4+8*len(list) > ioChunk && len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, checked.U32(len(list)))
		for _, nb := range list {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nb.ID))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(nb.Dist))
		}
	}
	_, err := w.Write(buf)
	return err
}

// ioChunk is the size of the buffered reads and writes of the wire format.
const ioChunk = 1 << 16 // bytes (64 KiB)

// Read deserialises a graph written by Write. The node count, κ and list
// lengths in the stream are untrusted: the lists are decoded into one
// backing array whose capacity doubles with the neighbours that actually
// arrive (vec.Grow, capped at n·κ), so truncated or bit-flipped inputs return an
// error — never a panic or an out-of-memory crash. From a source that
// reports its byte budget (vec.Budget) the array is allocated once, at the
// neighbours the stream still holds.
func Read(r io.Reader) (*Graph, error) { return read(r, math.MaxInt64) }

// read is Read over a stream that holds at most size bytes of graph: size,
// cut to r's byte budget when it reports one, sizes the read buffer and caps
// the neighbour array, so a section is decoded with no slack, and a known
// budget is where the array starts.
func read(r io.Reader, size int64) (*Graph, error) {
	budget := vec.Budget(r)
	if budget >= 0 {
		size = min(size, budget)
	}
	br := bufio.NewReaderSize(r, int(min(size, ioChunk)))
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("knngraph: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != graphMagic {
		return nil, fmt.Errorf("knngraph: bad magic %#x", magic)
	}
	n, kappa := int(binary.LittleEndian.Uint32(hdr[4:])), int(binary.LittleEndian.Uint32(hdr[8:]))
	if kappa <= 0 || n < 0 {
		return nil, fmt.Errorf("knngraph: invalid header n=%d kappa=%d", n, kappa)
	}
	// No more neighbours than the bytes after the header and the n length
	// words hold, and at most κ per node.
	limit := max(size-12-4*int64(n), 0) / 8
	if int64(n) <= limit/int64(kappa) {
		limit = int64(n) * int64(kappa)
	}
	floor := int64(ioChunk / 8)
	if budget >= 0 {
		floor = limit
	}
	var nbs []Neighbor // every list, back to back
	ends := make([]int, 0, min(n, ioChunk/8))
	buf := make([]byte, min(8*int64(kappa), ioChunk))
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("knngraph: reading list %d: %w", i, err)
		}
		l := int64(binary.LittleEndian.Uint32(buf))
		if l > int64(kappa) {
			return nil, fmt.Errorf("knngraph: list %d has %d entries, cap %d", i, l, kappa)
		}
		for left := int(l); left > 0; {
			c := min(left, len(buf)/8)
			chunk := buf[:8*c]
			if _, err := io.ReadFull(br, chunk); err != nil {
				return nil, fmt.Errorf("knngraph: reading list %d: %w", i, err)
			}
			nbs = vec.Grow(nbs, c, floor, limit)
			for k := 0; k < len(chunk); k += 8 {
				nbs = append(nbs, Neighbor{
					ID:   int32(binary.LittleEndian.Uint32(chunk[k:])),
					Dist: math.Float32frombits(binary.LittleEndian.Uint32(chunk[k+4:])),
				})
			}
			left -= c
		}
		ends = append(ends, len(nbs))
	}
	// Every list is now known: cut them from the one array, each with its
	// capacity at its own end so an append can never spill into the next.
	g := &Graph{Lists: make([][]Neighbor, n), Kappa: kappa}
	lo := 0
	for i, hi := range ends {
		g.Lists[i] = nbs[lo:hi:hi]
		lo = hi
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("knngraph: corrupt graph: %w", err)
	}
	return g, nil
}

// encodedSize returns the exact byte count Write produces: a 12-byte
// header plus, per node, a 4-byte list length and 8 bytes per neighbour.
func (g *Graph) encodedSize() int64 {
	size := int64(12)
	for _, list := range g.Lists {
		size += 4 + 8*int64(len(list))
	}
	return size
}

// SectionSize returns the exact byte count WriteSection produces — the
// 8-byte length prefix plus the Write encoding. Container formats that
// declare segment sizes up front (the multi-segment index layout) rely on
// it matching WriteSection exactly.
func (g *Graph) SectionSize() int64 { return 8 + g.encodedSize() }

// WriteSection serialises the graph as a length-prefixed section: a uint64
// byte count followed by the Write format, streamed (not buffered whole).
// Unlike Write/Read, a section can be embedded in the middle of a larger
// stream (index persistence does), because the prefix lets the reader
// bound its buffering exactly.
func (g *Graph) WriteSection(w io.Writer) (int64, error) {
	size := g.encodedSize()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(size))
	n, err := w.Write(hdr[:])
	written := int64(n)
	if err != nil {
		return written, err
	}
	if err := g.Write(w); err != nil {
		return written, err
	}
	return written + size, nil
}

// ReadSection deserialises a graph written by WriteSection, consuming
// exactly the section's bytes from r. The length prefix must equal the
// bytes the graph's lists use: a section that says more than its graph
// holds is corrupt, not padded, since it would re-save to other bytes.
func ReadSection(r io.Reader) (*Graph, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("knngraph: reading section header: %w", err)
	}
	size := binary.LittleEndian.Uint64(hdr[:])
	if size > 1<<40 {
		return nil, fmt.Errorf("knngraph: implausible section size %d", size)
	}
	g, err := read(io.LimitReader(r, int64(size)), int64(size))
	if err != nil {
		return nil, err
	}
	if used := g.encodedSize(); used != int64(size) {
		return nil, fmt.Errorf("knngraph: section says %d bytes, its graph uses %d", size, used)
	}
	return g, nil
}

// SaveFile writes the graph to a file on disk.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
