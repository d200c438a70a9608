package gkmeans

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"gkmeans/internal/checked"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/router"
	"gkmeans/internal/store"
	"gkmeans/internal/vec"
)

// Whole-index persistence: a versioned container (".gkx") holding the
// dataset, the k-NN graph(s) (reusing the knngraph wire format as embedded
// sections) and the optional Build-time clustering. Derived search
// structures (adjacency, entry points) are rebuilt on load from the
// persisted entry-point count, so a loaded index answers queries
// identically to the saved one.
//
// Version 1 — single segment (all little-endian):
//
//	uint32  magic "GKIX"
//	uint32  format version (1)
//	uint32  flags (bit 0: clustering section present)
//	uint32  requested entry points (0 = default)
//	matrix  dataset            (vec.WriteMatrix)
//	section k-NN graph         (knngraph.WriteSection)
//	[clustering: uint32 k, uint32 iters, n×int32 labels,
//	             matrix centroids]
//
// Version 2 — multi-segment, written for sharded indexes (WithShards):
//
//	uint32  magic "GKIX"
//	uint32  format version (2)
//	uint32  flags (bit 1: sharded — required in v2)
//	uint32  requested entry points (0 = default)
//	uint32  shard count (>= 2)
//	uint32  reserved (0)
//	matrix  full dataset       (vec.WriteMatrix; shards are row ranges)
//	segment table: per shard {uint32 rows, 4 pad bytes, uint64 segment size}
//	per shard: k-NN graph segment (knngraph.WriteSection, exactly
//	           "segment size" bytes over "rows" contiguous dataset rows)
//
// Version 3 — mutable: written when the index carries mutation state
// (tombstones, id maps, generations, an id bound past the row count, or a
// segment whose base is not its row offset, all products of
// Append/Delete/Compact):
//
//	uint32  magic "GKIX"
//	uint32  format version (3)
//	uint32  flags (bit 1: sharded — clear exactly for one segment whose row
//	        i is id i; bit 2: tombstones present)
//	uint32  requested entry points (0 = default)
//	uint32  segment count (>= 1)
//	uint32  id bound (lowest never-assigned external id, >= row count)
//	matrix  full dataset       (vec.WriteMatrix)
//	segment table: per segment {uint32 rows, uint32 seg flags,
//	               uint64 graph size, uint64 generation, uint32 base,
//	               4 pad bytes}
//	per segment: k-NN graph segment (knngraph.WriteSection, exactly
//	             "graph size" bytes), then — when the segment flags say
//	             so — ceil(rows/64) uint64 tombstone words (bit set =
//	             row deleted) and rows int32 external ids (the id map of
//	             a compacted segment; absent segments use base + row)
//
// Version 4 — routed: written when the index carries a shard router
// (WithRouting). The body is exactly the v3 layout (the sharded flag is
// required — only sharded indexes route), followed by one routing trailer:
//
//	uint32  routing centroids per shard (k, >= 1)
//	per segment: matrix of routing centroids (vec.WriteMatrix,
//	             1 <= rows <= min(k, segment rows), segment dimensionality)
//
// Version 5 — uint8: written for every index whose dataset is bytes
// (WithDType(DTypeUint8)/BuildU8), monolithic, sharded, mutated or routed.
// The layout is the v3/v4 shape with a dtype word inserted ahead of the
// segment count and the dataset stored as raw bytes:
//
//	uint32  magic "GKIX"
//	uint32  format version (5)
//	uint32  flags (bit 1: sharded, bit 2: tombstones, bit 3: routed,
//	        bit 4: uint8 — required in v5)
//	uint32  requested entry points (0 = default)
//	uint32  dtype word (1 = uint8; the only value v5 defines)
//	uint32  segment count (>= 1)
//	uint32  id bound
//	matrix  full uint8 dataset  (vec.WriteU8Matrix)
//	segment table + per-segment bodies exactly as v3
//	[routing trailer exactly as v4, when bit 3 is set]
//
// The segment table states every segment's exact byte size up front, so a
// reader can locate, skip or parallel-load segments without parsing them,
// and a truncated or inconsistent file fails with a clear error instead of
// a misaligned read. Loaders accept all five versions; the writer emits
// the oldest one that can express the index's state (layoutVersion): v1
// for plain monolithic indexes and v2 for plain sharded ones (older
// readers keep working, and saving an unmutated, unrouted index stays
// byte-stable), reserving v3 for indexes that actually carry mutation
// state, v4 for routed ones and v5 for uint8 datasets (a float32 index
// never writes v5, so every pre-existing file stays byte-stable). See
// ARCHITECTURE.md for the full format reference.
const (
	indexMagic          = uint32(0x474b4958) // "GKIX"
	indexVersionSingle  = uint32(1)
	indexVersionSharded = uint32(2)
	indexVersionMutable = uint32(3)
	indexVersionRouted  = uint32(4)
	indexVersionU8      = uint32(5)

	flagClusters = uint32(1 << 0)
	flagSharded  = uint32(1 << 1)
	flagTombs    = uint32(1 << 2)
	flagRouting  = uint32(1 << 3)
	flagU8       = uint32(1 << 4)

	// dtypeWordU8 is the value of the v5 header's dtype word. float32 has
	// no word (v1–v4 predate it); new element types would claim 2, 3, ….
	dtypeWordU8 = uint32(1)

	// Per-segment flags of the v3 segment table.
	segFlagTombs = uint32(1 << 0)
	segFlagIDMap = uint32(1 << 1)

	// maxShardSegments bounds the segment-table allocation against corrupt
	// headers; it is far above any sane shard count (every shard needs at
	// least minShardRows rows anyway).
	maxShardSegments = 1 << 20
)

// segmentEntry is one row of the v2 segment table. The blank field keeps
// the uint64 naturally aligned and the entry a round 16 bytes.
type segmentEntry struct {
	Rows uint32
	_    uint32
	Size uint64 // segment byte count (the shard's graph section)
}

// segmentEntryV3 is one row of the v3 segment table: the v2 fields plus
// the segment's mutation metadata. The blank field pads the entry to a
// round 32 bytes.
type segmentEntryV3 struct {
	Rows  uint32
	Flags uint32 // segFlagTombs, segFlagIDMap
	Size  uint64 // graph section byte count
	Gen   uint64 // build generation
	Base  uint32 // first external id (unused when an id map is present)
	_     uint32
}

// countingWriter tracks bytes written so WriteTo can satisfy io.WriterTo.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countingReader tracks bytes consumed so the v2 loader can verify each
// segment used exactly the bytes its table entry declared.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// diskEntries normalises the requested entry-point count for the header:
// any non-positive request means "default" and is stored as 0. An absurd
// request beyond uint32 is clamped — the searcher caps entry points at the
// dataset size anyway, so the loaded index behaves identically.
func (x *Index) diskEntries() uint32 {
	if x.cfg.entries < 0 {
		return 0
	}
	if int64(x.cfg.entries) > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(x.cfg.entries)
}

// layoutVersion picks the container version WriteTo emits: the oldest
// layout that can express the index's state, so every file an earlier
// release would have written for the same state is still written byte for
// byte. Bytes need v5 and a router v4; past those, the v1/v2 layouts say
// nothing per segment but its row count, so they fit only an index whose
// every segment is in its Build-time state (generation 0, no tombstones,
// no id map) at the base its row offset implies, with no id handed out
// beyond the rows present — anything else is v3.
func (x *Index) layoutVersion() uint32 {
	switch {
	case x.DType() == DTypeUint8:
		return indexVersionU8
	case x.route != nil:
		return indexVersionRouted
	}
	row := 0
	for i := range x.segs {
		s := &x.segs[i]
		if s.gen != 0 || s.ids != nil || s.dead() > 0 || int(s.base) != row {
			return indexVersionMutable
		}
		row += s.rows.n
	}
	switch {
	case int(x.nextID) != row:
		return indexVersionMutable
	case len(x.segs) > 1:
		return indexVersionSharded
	}
	return indexVersionSingle
}

// WriteTo serialises the whole index to w and returns the number of bytes
// written. It implements io.WriterTo. Plain one-segment indexes write the
// v1 single-segment layout and plain many-segment ones the v2
// multi-segment one; an index carrying mutation state writes v3, a routed
// one (WithRouting) writes v4, and a uint8 index — whatever its state —
// writes v5, the only layout with a byte dataset.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	var err error
	switch v := x.layoutVersion(); v {
	case indexVersionSingle:
		err = x.writeSingle(cw)
	case indexVersionSharded:
		err = x.writeSharded(cw)
	default:
		err = x.writeMutable(cw, v)
	}
	return cw.n, err
}

// writeSingle emits the v1 layout: dataset, graph, optional clustering.
func (x *Index) writeSingle(cw *countingWriter) error {
	var flags uint32
	if x.clusters != nil {
		flags |= flagClusters
	}
	hdr := []uint32{indexMagic, indexVersionSingle, flags, x.diskEntries()}
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := x.data.write(cw); err != nil {
		return err
	}
	if _, err := x.segs[0].graph.WriteSection(cw); err != nil {
		return err
	}
	if x.clusters != nil {
		c := x.clusters
		if err := binary.Write(cw, binary.LittleEndian, []uint32{checked.U32(c.K), checked.U32(c.Iters)}); err != nil {
			return err
		}
		labels := make([]int32, len(c.Labels))
		for i, l := range c.Labels {
			labels[i] = checked.Int32(l)
		}
		if err := binary.Write(cw, binary.LittleEndian, labels); err != nil {
			return err
		}
		if _, err := vec.WriteMatrix(cw, c.Centroids); err != nil {
			return err
		}
	}
	return nil
}

// writeSharded emits the v2 multi-segment layout: the full dataset once,
// then one graph segment per shard, preceded by the table of exact segment
// sizes (computable up front from the graphs' encoded sizes).
func (x *Index) writeSharded(cw *countingWriter) error {
	hdr := []uint32{indexMagic, indexVersionSharded, flagSharded, x.diskEntries(),
		checked.U32(len(x.segs)), 0}
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := x.data.write(cw); err != nil {
		return err
	}
	table := make([]segmentEntry, len(x.segs))
	for s := range table {
		table[s] = segmentEntry{Rows: checked.U32(x.segs[s].rows.n), Size: uint64(x.segs[s].graph.SectionSize())}
	}
	if err := binary.Write(cw, binary.LittleEndian, table); err != nil {
		return err
	}
	for s, e := range table {
		if err := x.segs[s].writeGraph(cw, s, e.Size); err != nil {
			return err
		}
	}
	return nil
}

// writeGraph emits segment s's graph section and checks it took exactly the
// size bytes the segment table promised.
func (sg *seg) writeGraph(cw *countingWriter, s int, size uint64) error {
	before := cw.n
	if _, err := sg.graph.WriteSection(cw); err != nil {
		return err
	}
	if got := uint64(cw.n - before); got != size {
		return fmt.Errorf("gkmeans: internal error: segment %d wrote %d bytes, table says %d", s, got, size)
	}
	return nil
}

// writeMutable emits the mutable layout (version indexVersionMutable), its
// routed extension (indexVersionRouted) or the uint8 layout
// (indexVersionU8): the v2 shape extended with the id bound in the header
// and per-segment generation, base, tombstone bitmap and id map; v4
// appends the routing-centroid trailer. v5 inserts a dtype word ahead of
// the segment count, stores the dataset as raw bytes, and carries the
// routing trailer exactly when the index routes. The sharded flag is left
// off exactly for an unrouted one-segment index whose row i is id i.
func (x *Index) writeMutable(cw *countingWriter, version uint32) error {
	if x.clusters != nil {
		// Unreachable: every mutation drops or refuses a clustering.
		return fmt.Errorf("gkmeans: internal error: mutated index carries a clustering")
	}
	flags := uint32(0)
	if x.Sharded() || x.route != nil {
		flags |= flagSharded
	}
	if x.Deleted() > 0 {
		flags |= flagTombs
	}
	if x.route != nil {
		flags |= flagRouting
	}
	hdr := []uint32{indexMagic, version, flags, x.diskEntries()}
	if version == indexVersionU8 {
		hdr[2] |= flagU8
		hdr = append(hdr, dtypeWordU8)
	}
	hdr = append(hdr, checked.U32(len(x.segs)), uint32(x.nextID))
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := x.data.write(cw); err != nil {
		return err
	}
	table := make([]segmentEntryV3, len(x.segs))
	for s := range table {
		sg := &x.segs[s]
		e := segmentEntryV3{
			Rows: checked.U32(sg.rows.n),
			Size: uint64(sg.graph.SectionSize()),
			Gen:  sg.gen,
			Base: uint32(sg.base),
		}
		if sg.dead() > 0 {
			e.Flags |= segFlagTombs
		}
		if sg.ids != nil {
			e.Flags |= segFlagIDMap
		}
		table[s] = e
	}
	if err := binary.Write(cw, binary.LittleEndian, table); err != nil {
		return err
	}
	for s, e := range table {
		sg := &x.segs[s]
		if err := sg.writeGraph(cw, s, e.Size); err != nil {
			return err
		}
		if e.Flags&segFlagTombs != 0 {
			if err := binary.Write(cw, binary.LittleEndian, sg.tomb.Words()); err != nil {
				return err
			}
		}
		if e.Flags&segFlagIDMap != 0 {
			if err := binary.Write(cw, binary.LittleEndian, sg.ids); err != nil {
				return err
			}
		}
	}
	if x.route != nil {
		if err := binary.Write(cw, binary.LittleEndian, checked.U32(x.route.K())); err != nil {
			return err
		}
		for s := range x.segs {
			if _, err := vec.WriteMatrix(cw, x.route.Centroids(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadIndexFrom deserialises an index written by WriteTo — either layout
// version. The loaded index is immediately ready for Search, SearchBatch
// and (when monolithic) Cluster, and answers searches identically to the
// index that was saved.
func ReadIndexFrom(r io.Reader) (*Index, error) {
	hdr := make([]uint32, 4)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("gkmeans: reading index header: %w", err)
	}
	if hdr[0] != indexMagic {
		return nil, fmt.Errorf("gkmeans: bad index magic %#x", hdr[0])
	}
	flags, entries := hdr[2], int(hdr[3])
	switch hdr[1] {
	case indexVersionSingle:
		return readSingle(r, flags, entries)
	case indexVersionSharded:
		return readSharded(r, flags, entries)
	case indexVersionMutable, indexVersionRouted, indexVersionU8:
		return readMutable(r, hdr[1], flags, entries)
	}
	return nil, fmt.Errorf("gkmeans: unsupported index version %d (want %d, %d, %d, %d or %d)",
		hdr[1], indexVersionSingle, indexVersionSharded, indexVersionMutable, indexVersionRouted, indexVersionU8)
}

// readSingle loads the body of a v1 single-segment container.
func readSingle(r io.Reader, flags uint32, entries int) (*Index, error) {
	if flags&flagU8 != 0 {
		return nil, fmt.Errorf("gkmeans: v1 index with the uint8 flag — dtype/flag mismatch (flags %#x)", flags)
	}
	data, err := vec.ReadMatrix(r)
	if err != nil {
		return nil, err
	}
	g, err := knngraph.ReadSection(r)
	if err != nil {
		return nil, err
	}
	x, err := NewIndex(data, g, WithEntryPoints(entries))
	if err != nil {
		return nil, err
	}
	if flags&flagClusters != 0 {
		var ck [2]uint32
		if err := binary.Read(r, binary.LittleEndian, ck[:]); err != nil {
			return nil, fmt.Errorf("gkmeans: reading clustering header: %w", err)
		}
		labels32 := make([]int32, data.N)
		if err := binary.Read(r, binary.LittleEndian, labels32); err != nil {
			return nil, fmt.Errorf("gkmeans: reading labels: %w", err)
		}
		labels := make([]int, len(labels32))
		for i, l := range labels32 {
			labels[i] = int(l)
		}
		centroids, err := vec.ReadMatrix(r)
		if err != nil {
			return nil, err
		}
		res := &Result{Labels: labels, Centroids: centroids, K: int(ck[0]), Iters: int(ck[1]), Graph: g}
		if err := res.Validate(data); err != nil {
			return nil, fmt.Errorf("gkmeans: corrupt clustering section: %w", err)
		}
		x.clusters = res
	}
	return x, nil
}

// readGraph reads one graph section and checks it consumed exactly the
// size bytes the segment table declared, then validates it against rows.
func readGraph(cr *countingReader, s int, size uint64, rows rowStore, entries int) (*segCore, error) {
	before := cr.n
	g, err := knngraph.ReadSection(cr)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: reading segment %d: %w", s, err)
	}
	if got := uint64(cr.n - before); got != size {
		return nil, fmt.Errorf("gkmeans: segment %d consumed %d bytes, table says %d", s, got, size)
	}
	sc, err := newSegCore(rows, g, entries)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: segment %d: %w", s, err)
	}
	return sc, nil
}

// readSharded loads the body of a v2 multi-segment container: the full
// dataset, the segment table, then one graph segment per shard, each
// checked against the table's declared row count and byte size.
func readSharded(r io.Reader, flags uint32, entries int) (*Index, error) {
	if flags&flagSharded == 0 {
		return nil, fmt.Errorf("gkmeans: v2 index without the sharded flag (flags %#x)", flags)
	}
	if flags&flagU8 != 0 {
		return nil, fmt.Errorf("gkmeans: v2 index with the uint8 flag — dtype/flag mismatch (flags %#x)", flags)
	}
	var tail [2]uint32
	if err := binary.Read(r, binary.LittleEndian, tail[:]); err != nil {
		return nil, fmt.Errorf("gkmeans: reading sharded header: %w", err)
	}
	nShards := int(tail[0])
	if nShards < 2 || nShards > maxShardSegments {
		return nil, fmt.Errorf("gkmeans: implausible shard count %d", nShards)
	}
	data, err := readRows(r, DTypeFloat32)
	if err != nil {
		return nil, err
	}
	table := make([]segmentEntry, nShards)
	if err := binary.Read(r, binary.LittleEndian, table); err != nil {
		return nil, fmt.Errorf("gkmeans: reading segment table: %w", err)
	}
	totalRows := int64(0)
	for _, e := range table {
		totalRows += int64(e.Rows)
	}
	if totalRows != int64(data.n) {
		return nil, fmt.Errorf("gkmeans: segment table covers %d rows, dataset has %d (shard-count mismatch or corrupt table)",
			totalRows, data.n)
	}
	cr := &countingReader{r: r}
	x := &Index{data: data, segs: make([]seg, nShards), probes: &probeStats{},
		nextID: checked.Int32(data.n), cfg: config{entries: entries, shards: nShards}}
	row := 0
	for s, e := range table {
		rows := int(e.Rows)
		sc, err := readGraph(cr, s, e.Size, data.view(row, row+rows), entries)
		if err != nil {
			return nil, err
		}
		x.segs[s] = seg{segCore: sc, base: checked.Int32(row)}
		row += rows
	}
	return x, nil
}

// readMutable loads the body of a v3 mutable container, a v4 routed one or
// a v5 uint8 one. Every piece of mutation and routing metadata is
// validated against the dataset and the id bound: a corrupt file fails
// loudly instead of producing an index whose ids alias, whose tombstones
// cover rows that do not exist, or whose routing centroids have the wrong
// shape. A v5 container additionally pins its dtype twice — the flagU8 bit
// and the dtype word must both say uint8 — so a flipped bit cannot make a
// byte dataset parse as floats or vice versa.
func readMutable(r io.Reader, version, flags uint32, entries int) (*Index, error) {
	dt := DTypeFloat32
	if version == indexVersionU8 {
		dt = DTypeUint8
	}
	routed := flags&flagRouting != 0
	switch {
	case version == indexVersionMutable && routed:
		return nil, fmt.Errorf("gkmeans: v3 index with the routing flag (flags %#x)", flags)
	case version == indexVersionRouted && !routed:
		return nil, fmt.Errorf("gkmeans: v4 index without the routing flag (flags %#x)", flags)
	case dt != DTypeUint8 && flags&flagU8 != 0:
		return nil, fmt.Errorf("gkmeans: v%d index with the uint8 flag — dtype/flag mismatch (flags %#x)", version, flags)
	case dt == DTypeUint8 && flags&flagU8 == 0:
		return nil, fmt.Errorf("gkmeans: v5 index without the uint8 flag — dtype/flag mismatch (flags %#x)", flags)
	}
	if routed && flags&flagSharded == 0 {
		return nil, fmt.Errorf("gkmeans: routed index without the sharded flag (flags %#x)", flags)
	}
	if dt == DTypeUint8 {
		var dtype uint32
		if err := binary.Read(r, binary.LittleEndian, &dtype); err != nil {
			return nil, fmt.Errorf("gkmeans: reading dtype word: %w", err)
		}
		if dtype != dtypeWordU8 {
			return nil, fmt.Errorf("gkmeans: bad dtype word %d (a v5 container stores uint8, word %d)", dtype, dtypeWordU8)
		}
	}
	var tail [2]uint32
	if err := binary.Read(r, binary.LittleEndian, tail[:]); err != nil {
		return nil, fmt.Errorf("gkmeans: reading mutable header: %w", err)
	}
	segs := int(tail[0])
	if segs < 1 || segs > maxShardSegments {
		return nil, fmt.Errorf("gkmeans: implausible segment count %d", segs)
	}
	// Without the sharded flag the file promises the monolithic state: one
	// segment whose row i is id i.
	monolithic := flags&flagSharded == 0
	if monolithic && segs != 1 {
		return nil, fmt.Errorf("gkmeans: monolithic v%d index with %d segments", version, segs)
	}
	if tail[1] > math.MaxInt32 {
		return nil, fmt.Errorf("gkmeans: id bound %d overflows int32", tail[1])
	}
	nextID := int32(tail[1])
	data, err := readRows(r, dt)
	if err != nil {
		return nil, err
	}
	if int64(nextID) < int64(data.n) {
		return nil, fmt.Errorf("gkmeans: id bound %d below row count %d", nextID, data.n)
	}
	table := make([]segmentEntryV3, segs)
	if err := binary.Read(r, binary.LittleEndian, table); err != nil {
		return nil, fmt.Errorf("gkmeans: reading segment table: %w", err)
	}
	totalRows := int64(0)
	for _, e := range table {
		totalRows += int64(e.Rows)
	}
	if totalRows != int64(data.n) {
		return nil, fmt.Errorf("gkmeans: segment table covers %d rows, dataset has %d", totalRows, data.n)
	}
	cr := &countingReader{r: r}
	x := &Index{data: data, segs: make([]seg, segs), probes: &probeStats{}, nextID: nextID,
		cfg: config{entries: entries, shards: segs, dtype: dt}}
	row := 0
	for s, e := range table {
		rows := int(e.Rows)
		if e.Flags&^(segFlagTombs|segFlagIDMap) != 0 {
			return nil, fmt.Errorf("gkmeans: segment %d has unknown flags %#x", s, e.Flags)
		}
		if e.Base > math.MaxInt32 {
			return nil, fmt.Errorf("gkmeans: segment %d base %d overflows int32", s, e.Base)
		}
		sc, err := readGraph(cr, s, e.Size, data.view(row, row+rows), entries)
		if err != nil {
			return nil, err
		}
		sg := seg{segCore: sc, base: int32(e.Base), gen: e.Gen}
		if e.Flags&segFlagTombs != 0 {
			words := make([]uint64, (rows+63)/64)
			if err := binary.Read(cr, binary.LittleEndian, words); err != nil {
				return nil, fmt.Errorf("gkmeans: reading segment %d tombstones: %w", s, err)
			}
			if sg.tomb, err = store.BitsFromWords(rows, words); err != nil {
				return nil, fmt.Errorf("gkmeans: segment %d: %w", s, err)
			}
		}
		if e.Flags&segFlagIDMap != 0 {
			if monolithic {
				return nil, fmt.Errorf("gkmeans: monolithic v%d index with an id map", version)
			}
			sg.ids = make([]int32, rows)
			if err := binary.Read(cr, binary.LittleEndian, sg.ids); err != nil {
				return nil, fmt.Errorf("gkmeans: reading segment %d id map: %w", s, err)
			}
			for l, id := range sg.ids {
				if id < 0 || id >= nextID {
					return nil, fmt.Errorf("gkmeans: segment %d maps row %d to id %d, outside [0,%d)", s, l, id, nextID)
				}
			}
			sg.base = sg.ids[0]
		} else if int64(e.Base)+int64(rows) > int64(nextID) {
			return nil, fmt.Errorf("gkmeans: segment %d ids %d..%d exceed the id bound %d", s, e.Base, int64(e.Base)+int64(rows), nextID)
		}
		x.segs[s] = sg
		row += rows
	}
	if monolithic && table[0].Base != 0 {
		return nil, fmt.Errorf("gkmeans: monolithic v%d index with base %d", version, table[0].Base)
	}
	if routed {
		var k32 uint32
		if err := binary.Read(cr, binary.LittleEndian, &k32); err != nil {
			return nil, fmt.Errorf("gkmeans: reading routing header: %w", err)
		}
		if k32 < 1 || k32 > math.MaxInt32 {
			return nil, fmt.Errorf("gkmeans: implausible routing centroid count %d per shard", k32)
		}
		k := int(k32)
		cents := make([]*vec.Matrix, segs)
		for s := range cents {
			m, err := vec.ReadMatrix(cr)
			if err != nil {
				return nil, fmt.Errorf("gkmeans: reading segment %d routing centroids: %w", s, err)
			}
			if m.Dim != data.dim {
				return nil, fmt.Errorf("gkmeans: segment %d routing centroids are %d-dimensional, data is %d-dimensional", s, m.Dim, data.dim)
			}
			if want := int(table[s].Rows); m.N > k || m.N > want || m.N < 1 {
				return nil, fmt.Errorf("gkmeans: segment %d has %d routing centroids for %d rows (config %d per shard)", s, m.N, want, k)
			}
			cents[s] = m
		}
		route, err := router.New(k, data.dim, cents)
		if err != nil {
			return nil, fmt.Errorf("gkmeans: corrupt routing section: %w", err)
		}
		x.route = route
		x.cfg.routing = k
	}
	return x, nil
}

// writeFileAtomic writes through a temporary file in path's directory and
// renames it into place only after every byte is down and the file is
// closed. A failed or interrupted write therefore never leaves a truncated
// file at path (which a later gkserved -index would refuse to load) — the
// previous contents, if any, survive intact and the temporary is removed.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// CreateTemp opens 0600; widen to the 0644 a plain os.Create would
	// typically produce, so an index saved by a build pipeline stays
	// readable by a separate serving user.
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SaveIndex writes the index to a file on disk, atomically: the index is
// serialised to a temporary file next to path and renamed into place, so a
// mid-write failure cannot leave a truncated index behind.
func SaveIndex(path string, x *Index) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := x.WriteTo(w)
		return err
	})
}

// LoadIndex reads an index from a file written by SaveIndex.
func LoadIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIndexFrom(f)
}
