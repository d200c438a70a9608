package gkmeans

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"gkmeans/internal/checked"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/router"
	"gkmeans/internal/store"
	"gkmeans/internal/vec"
)

// Whole-index persistence: one container (".gkx") holding the dataset, every
// segment's k-NN graph (the knngraph wire format, as length-prefixed
// sections), the mutation and routing state and the optional Build-time
// clustering. Derived search structures are rebuilt on load from the
// persisted entry-point count, so a loaded index answers queries identically
// to the saved one, and the persisted build options (κ, ξ, τ, seed,
// builder), so the shards Append and Compact build on a loaded index come
// out as they would have on the saved one. WriteTo writes one layout,
// version 7, for every state an Index can be in (little-endian;
// ARCHITECTURE.md has the full reference):
//
//	uint32  magic "GKIX", version (7), flags (flag* below), requested entry
//	        points (0 = default), dtype word (must agree with flagU8),
//	        segment count (>= 1), id bound (>= row count)
//	options uint32 κ, ξ, τ (0 = default; at most maxKappa, maxXi, maxTau),
//	        int64 seed, uint32 builder word (index into builderWords)
//	matrix  dataset: every segment's rows in segment order, as one matrix
//	        block of the dtype's width (vec.WriteRows); each segment owns
//	        the next table Rows rows of it
//	table   one segmentEntry per segment
//	per segment: graph (knngraph.WriteSection, exactly the table's Size
//	        bytes), then — when its segFlag* say so — ceil(rows/64) uint64
//	        tombstone words and rows int32 external ids
//	[routing trailer: uint32 centroids per segment k, then per segment a
//	        matrix of 1..min(k, rows) centroids (vec.WriteMatrix)]
//	[clustering trailer: uint32 k, uint32 iters, n×int32 labels, matrix of
//	        centroids — only on a monolithic float32 index without tombstones]
//
// The table states every graph's exact byte size up front, so a truncated or
// inconsistent file fails with a clear error instead of a misaligned read.
// No count in the file is trusted for an allocation before the bytes it
// counts have arrived: payloads and neighbour lists grow with the stream
// (at most doubling, vec.Grow), so a lying length costs at most about twice
// the bytes actually read. The build options are bounded (checkGraph) as
// Build bounds them, so a lying τ, κ or ξ cannot make the first Append of a
// loaded index allocate or run without limit.
//
// Versions 1–6, written by earlier releases, are read (persist_legacy.go
// translates their headers into readBody's input) and never written; they
// carry no build options, so their indexes build with the defaults.
const (
	indexMagic   = uint32(0x474b4958) // "GKIX"
	indexVersion = uint32(7)
	// indexHeaderSize is the byte size of a v7 header, options included.
	indexHeaderSize = 52

	flagClusters = uint32(1 << 0) // clustering trailer present
	flagSharded  = uint32(1 << 1) // clear exactly for one segment whose row i is id i
	flagTombs    = uint32(1 << 2) // some segment has tombstones
	flagRouting  = uint32(1 << 3) // routing trailer present
	flagU8       = uint32(1 << 4) // uint8 dataset

	// The header's dtype word; new element types would claim 2, 3, ….
	dtypeWordF32 = uint32(0)
	dtypeWordU8  = uint32(1)

	// Per-segment flags of the segment table.
	segFlagTombs = uint32(1 << 0) // tombstone words follow the graph (bit set = row deleted)
	segFlagIDMap = uint32(1 << 1) // an id map follows (routed or compacted segment)

	// maxShardSegments bounds the segment-table allocation against corrupt
	// headers, far above any sane count (a shard needs minShardRows rows).
	maxShardSegments = 1 << 20
)

// segmentEntry is one row of the segment table, padded to a round 32 bytes.
type segmentEntry struct {
	Rows  uint32
	Flags uint32 // segFlagTombs, segFlagIDMap
	Size  uint64 // graph section byte count
	Gen   uint64 // build generation
	Base  uint32 // external id of row 0; row l is Base+l (unused under an id map)
	_     uint32
}

// segmentEntrySize is the encoded size of a segmentEntry.
const segmentEntrySize = 32

// append appends e's encoding — the fields in order, little-endian, and
// the zero pad word — to b.
func (e segmentEntry) append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, e.Rows)
	b = binary.LittleEndian.AppendUint32(b, e.Flags)
	b = binary.LittleEndian.AppendUint64(b, e.Size)
	b = binary.LittleEndian.AppendUint64(b, e.Gen)
	b = binary.LittleEndian.AppendUint32(b, e.Base)
	return binary.LittleEndian.AppendUint32(b, 0)
}

// builderWords numbers the graph builders a header can name. Word 0 is the
// unset option, which builds with the default, kept apart from naming that
// default so that a loaded index holds exactly the options it was saved
// with.
var builderWords = [...]string{"", BuilderGKMeans, BuilderNNDescent}

// gkxHeader is what readBody needs from a container's header: ReadIndexFrom
// fills it from a v7 header, readLegacy translates a v1–v6 one.
type gkxHeader struct {
	version uint32 // as found in the file, for error messages
	flags   uint32 // in v7 terms
	cfg     config // entry points, dtype and (v7) κ, ξ, τ, seed and builder
	segs    int
	idBound int64 // -1: the header predates the id bound, which is the row count
	// table, when set, produces the segment table of a layout that stores it
	// differently (v2) or not at all (v1), and the reader to continue with.
	table func(r io.Reader, segs, rows int) ([]segmentEntry, io.Reader, error)
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

// flagIf returns bit when on holds, else no bit.
func flagIf(on bool, bit uint32) uint32 {
	if on {
		return bit
	}
	return 0
}

// WriteTo serialises the whole index to w in the v7 layout and returns the
// number of bytes written (io.WriterTo). It is the package's one writer: it
// lists the file's parts in layout order — header, dataset, segment table
// (computable up front from the graphs' encoded sizes), segment bodies, the
// trailers the index's state calls for — and then writes them.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	u8 := x.DType() == DTypeUint8
	flags := flagIf(x.clusters != nil, flagClusters) | flagIf(x.Sharded() || x.route != nil, flagSharded) |
		flagIf(x.Deleted() > 0, flagTombs) | flagIf(x.route != nil, flagRouting) | flagIf(u8, flagU8)
	// Any non-positive entry-point request means "default" and is stored as
	// 0; an absurd one is clamped — the searcher caps entry points at the
	// dataset size anyway, so the loaded index behaves identically.
	entries := checked.U32(min(max(int64(x.cfg.entries), 0), math.MaxUint32))
	rows, table := make([]vec.Rows, len(x.segs)), make([]byte, 0, segmentEntrySize*len(x.segs))
	for s := range x.segs {
		sg := &x.segs[s]
		rows[s] = sg.rows
		table = segmentEntry{Rows: checked.U32(sg.rows.N), Size: uint64(sg.graph.SectionSize()), Gen: sg.gen,
			Base: uint32(sg.base), Flags: flagIf(sg.dead() > 0, segFlagTombs) | flagIf(sg.ids != nil, segFlagIDMap)}.append(table)
	}
	hdr := make([]byte, 0, indexHeaderSize)
	for _, word := range []uint32{indexMagic, indexVersion, flags, entries, flagIf(u8, dtypeWordU8),
		checked.U32(len(x.segs)), uint32(x.nextID)} {
		hdr = binary.LittleEndian.AppendUint32(hdr, word)
	}
	hdr = x.cfg.appendOptions(hdr)
	parts := []any{hdr, rows, table}
	for s := range x.segs {
		sg := &x.segs[s]
		parts = append(parts, sg.graph)
		if sg.dead() > 0 {
			parts = append(parts, sg.tomb.Words())
		}
		if sg.ids != nil {
			parts = append(parts, sg.ids)
		}
	}
	if x.route != nil {
		parts = append(parts, checked.U32(x.route.K()))
		for s := range x.segs {
			parts = append(parts, x.route.Centroids(s))
		}
	}
	if c := x.clusters; c != nil {
		labels := make([]int32, len(c.Labels))
		for i, l := range c.Labels {
			labels[i] = checked.Int32(l)
		}
		parts = append(parts, []uint32{checked.U32(c.K), checked.U32(c.Iters)}, labels, c.Centroids)
	}
	cw := &countingWriter{w: w}
	for _, part := range parts {
		var err error
		switch p := part.(type) {
		case []vec.Rows:
			_, err = vec.WriteRows(cw, p...)
		case *Graph:
			var n int64
			if n, err = p.WriteSection(cw); err == nil && n != p.SectionSize() {
				err = fmt.Errorf("gkmeans: internal error: graph section wrote %d bytes, table says %d", n, p.SectionSize())
			}
		case *Matrix:
			_, err = vec.WriteMatrix(cw, p)
		case []byte: // the encoded header and segment table
			_, err = cw.Write(p)
		default: // routing and clustering words, tombstone words, ids, labels
			err = binary.Write(cw, binary.LittleEndian, p)
		}
		if err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// appendOptions appends the build options as a v7 header and an encoded
// segment (EncodeSegment) store them — uint32 κ, ξ, τ, int64 seed, uint32
// builder word — to b. Every builder reads a non-positive κ, ξ or τ as its
// default, so 0 builds the same; Build and NewIndex refuse values above the
// limits (checkGraph), which the reader checks again, and accept only the
// builder names builderWords lists.
func (c config) appendOptions(b []byte) []byte {
	for _, v := range []int{c.kappa, c.xi, c.tau} {
		b = binary.LittleEndian.AppendUint32(b, checked.U32(max(v, 0)))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.seed))
	return binary.LittleEndian.AppendUint32(b, checked.U32(slices.Index(builderWords[:], c.builder)))
}

// ReadIndexFrom deserialises an index written by WriteTo — this release's or
// an earlier one's (layouts 1–6). The loaded index is ready for Search,
// SearchBatch and (when monolithic) Cluster, and answers like the saved one;
// from a v7 file, Append and Compact also build as they would have on it.
func ReadIndexFrom(r io.Reader) (*Index, error) {
	hdr := make([]uint32, 4)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("gkmeans: reading index header: %w", err)
	}
	if hdr[0] != indexMagic {
		return nil, fmt.Errorf("gkmeans: bad index magic %#x", hdr[0])
	}
	h := gkxHeader{version: hdr[1], flags: hdr[2], cfg: config{entries: int(hdr[3])}}
	if h.version != indexVersion {
		if err := h.readLegacy(r); err != nil {
			return nil, err
		}
		return readBody(r, h)
	}
	if err := h.readShape(r); err != nil {
		return nil, err
	}
	if err := h.readOptions(r); err != nil {
		return nil, err
	}
	return readBody(r, h)
}

// readOptions reads the build options that end a v7 header.
func (h *gkxHeader) readOptions(r io.Reader) error {
	var opts [24]byte // uint32 κ, ξ, τ; int64 seed; uint32 builder word
	if _, err := io.ReadFull(r, opts[:]); err != nil {
		return fmt.Errorf("gkmeans: reading build options: %w", err)
	}
	for i, opt := range [...]struct {
		name string
		dst  *int
	}{{"kappa", &h.cfg.kappa}, {"xi", &h.cfg.xi}, {"tau", &h.cfg.tau}} {
		v := binary.LittleEndian.Uint32(opts[4*i:])
		if v > math.MaxInt32 {
			return fmt.Errorf("gkmeans: build option %s = %d overflows int32", opt.name, v)
		}
		*opt.dst = int(v)
	}
	builder := binary.LittleEndian.Uint32(opts[20:])
	if builder >= uint32(len(builderWords)) {
		return fmt.Errorf("gkmeans: unknown graph builder word %d", builder)
	}
	h.cfg.seed = int64(binary.LittleEndian.Uint64(opts[12:]))
	h.cfg.builder = builderWords[builder]
	return h.cfg.checkGraph()
}

// readShape reads the header words v6 and v7 share after the entry-point
// count: the dtype word, the segment count and the id bound.
func (h *gkxHeader) readShape(r io.Reader) error {
	var rest [3]uint32 // dtype word, segment count, id bound
	if err := binary.Read(r, binary.LittleEndian, rest[:]); err != nil {
		return fmt.Errorf("gkmeans: reading index header: %w", err)
	}
	// The uint8 flag and the dtype word pin the dtype twice: a flipped bit
	// cannot make bytes parse as floats or vice versa.
	switch u8 := h.flags&flagU8 != 0; {
	case rest[0] != dtypeWordF32 && rest[0] != dtypeWordU8:
		return fmt.Errorf("gkmeans: bad dtype word %d (want %d for float32 or %d for uint8)", rest[0], dtypeWordF32, dtypeWordU8)
	case u8 != (rest[0] == dtypeWordU8):
		return fmt.Errorf("gkmeans: dtype word %d against uint8 flag %t — dtype/flag mismatch (flags %#x)", rest[0], u8, h.flags)
	case u8:
		h.cfg.dtype = DTypeUint8
	}
	h.segs, h.idBound = int(rest[1]), int64(rest[2])
	return nil
}

// readBody loads everything after the header: dataset, segment table, each
// segment's graph, tombstones and id map, routing trailer, clustering
// trailer. All of it is validated against the dataset and the id bound, so a
// corrupt file fails loudly instead of producing an index whose ids alias or
// whose tombstones, routing centroids or labels have the wrong shape.
func readBody(r io.Reader, h gkxHeader) (*Index, error) {
	routed := h.flags&flagRouting != 0
	// No sharded flag promises the monolithic state: one segment, row i is id i.
	monolithic := h.flags&flagSharded == 0
	switch {
	case h.segs < 1 || h.segs > maxShardSegments:
		return nil, fmt.Errorf("gkmeans: implausible segment count %d", h.segs)
	case routed && monolithic:
		return nil, fmt.Errorf("gkmeans: routed index without the sharded flag (flags %#x)", h.flags)
	case monolithic && h.segs != 1:
		return nil, fmt.Errorf("gkmeans: monolithic v%d index with %d segments", h.version, h.segs)
	case h.idBound > math.MaxInt32:
		return nil, fmt.Errorf("gkmeans: id bound %d overflows int32", h.idBound)
	}
	data, err := vec.ReadRows(r, h.cfg.dtype == DTypeUint8)
	if err != nil {
		return nil, err
	}
	if h.idBound < 0 {
		h.idBound = int64(data.N)
	}
	if h.idBound < int64(data.N) {
		return nil, fmt.Errorf("gkmeans: id bound %d below row count %d", h.idBound, data.N)
	}
	nextID := int32(h.idBound)
	var table []segmentEntry
	if h.table != nil {
		table, r, err = h.table(r, h.segs, data.N)
	} else {
		table = make([]segmentEntry, h.segs)
		err = binary.Read(r, binary.LittleEndian, table)
	}
	if err != nil {
		return nil, fmt.Errorf("gkmeans: reading segment table: %w", err)
	}
	totalRows := int64(0)
	for _, e := range table {
		totalRows += int64(e.Rows)
	}
	if totalRows != int64(data.N) {
		return nil, fmt.Errorf("gkmeans: segment table covers %d rows, dataset has %d (segment-count mismatch or corrupt table)", totalRows, data.N)
	}
	x := &Index{segs: make([]seg, h.segs), probes: &probeStats{}, nextID: nextID, cfg: h.cfg}
	row := 0
	for s, e := range table {
		rows := int(e.Rows)
		if e.Flags&^(segFlagTombs|segFlagIDMap) != 0 {
			return nil, fmt.Errorf("gkmeans: segment %d has unknown flags %#x", s, e.Flags)
		}
		if e.Base > math.MaxInt32 {
			return nil, fmt.Errorf("gkmeans: segment %d base %d overflows int32", s, e.Base)
		}
		// The section must use exactly the bytes its table entry declares.
		lr := &io.LimitedReader{R: r, N: int64(min(e.Size, math.MaxInt64))}
		g, err := knngraph.ReadSection(lr)
		if err != nil {
			return nil, fmt.Errorf("gkmeans: reading segment %d: %w", s, err)
		}
		if lr.N != 0 {
			return nil, fmt.Errorf("gkmeans: segment %d consumed %d bytes, table says %d", s, e.Size-uint64(lr.N), e.Size)
		}
		sc, err := newSegCore(data.View(row, row+rows), g, h.cfg.entries)
		if err != nil {
			return nil, fmt.Errorf("gkmeans: segment %d: %w", s, err)
		}
		sg := seg{segCore: sc, base: int32(e.Base), gen: e.Gen}
		if e.Flags&segFlagTombs != 0 {
			words := make([]uint64, (rows+63)/64)
			if err := binary.Read(r, binary.LittleEndian, words); err != nil {
				return nil, fmt.Errorf("gkmeans: reading segment %d tombstones: %w", s, err)
			}
			if sg.tomb, err = store.BitsFromWords(rows, words); err != nil {
				return nil, fmt.Errorf("gkmeans: segment %d: %w", s, err)
			}
		}
		if e.Flags&segFlagIDMap != 0 {
			if monolithic {
				return nil, fmt.Errorf("gkmeans: monolithic v%d index with an id map", h.version)
			}
			sg.ids = make([]int32, rows)
			if err := binary.Read(r, binary.LittleEndian, sg.ids); err != nil {
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
		return nil, fmt.Errorf("gkmeans: monolithic v%d index with base %d", h.version, table[0].Base)
	}
	if routed {
		if x.route, err = readRouting(r, data.Dim, table); err != nil {
			return nil, err
		}
		x.cfg.routing = x.route.K()
	}
	if h.flags&flagClusters != 0 {
		// The writer attaches a clustering only to the state Cluster accepts.
		if !monolithic || h.cfg.dtype != DTypeFloat32 || x.Deleted() > 0 {
			return nil, fmt.Errorf("gkmeans: clustering flag on a sharded, uint8 or tombstoned index (flags %#x, %d deleted rows)", h.flags, x.Deleted())
		}
		if x.clusters, err = readClustering(r, data.F32(), x.segs[0].graph); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// readRouting loads the routing trailer: the configured centroid count, then
// one centroid matrix per segment, each checked against its segment.
func readRouting(r io.Reader, dim int, table []segmentEntry) (*router.Table, error) {
	var k32 uint32
	if err := binary.Read(r, binary.LittleEndian, &k32); err != nil {
		return nil, fmt.Errorf("gkmeans: reading routing header: %w", err)
	}
	if k32 < 1 || k32 > math.MaxInt32 {
		return nil, fmt.Errorf("gkmeans: implausible routing centroid count %d per shard", k32)
	}
	k, cents := int(k32), make([]*vec.Matrix, len(table))
	for s := range cents {
		m, err := vec.ReadMatrix(r)
		if err != nil {
			return nil, fmt.Errorf("gkmeans: reading segment %d routing centroids: %w", s, err)
		}
		if rows := int(table[s].Rows); m.N > rows {
			return nil, fmt.Errorf("gkmeans: segment %d has %d routing centroids for %d rows", s, m.N, rows)
		}
		cents[s] = m
	}
	// router.New checks the rest: 1..k centroids per segment, all dim-dimensional.
	route, err := router.New(k, dim, cents)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: corrupt routing section: %w", err)
	}
	return route, nil
}

// readClustering loads and validates a monolithic index's clustering trailer.
func readClustering(r io.Reader, data *Matrix, g *Graph) (*Result, error) {
	var ck [2]uint32
	if err := binary.Read(r, binary.LittleEndian, ck[:]); err != nil {
		return nil, fmt.Errorf("gkmeans: reading clustering header: %w", err)
	}
	labels32 := make([]int32, data.N)
	if err := binary.Read(r, binary.LittleEndian, labels32); err != nil {
		return nil, fmt.Errorf("gkmeans: reading labels: %w", err)
	}
	res := &Result{Labels: make([]int, data.N), K: int(ck[0]), Iters: int(ck[1]), Graph: g}
	for i, l := range labels32 {
		res.Labels[i] = int(l)
	}
	var err error
	if res.Centroids, err = vec.ReadMatrix(r); err != nil {
		return nil, err
	}
	if err := res.Validate(data); err != nil {
		return nil, fmt.Errorf("gkmeans: corrupt clustering section: %w", err)
	}
	return res, nil
}

// writeFileAtomic writes through a temporary file in path's directory and
// renames it into place only after every byte is down — written, fsynced
// and closed — then fsyncs the directory so the rename survives a power loss
// too (the serving layer discards WAL records once this returns). A failed
// write never leaves a truncated file at path: the previous contents, if
// any, survive intact and the temporary is removed.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	// CreateTemp opens 0600; widen to the 0644 of a plain os.Create, so an
	// index saved by a build pipeline stays readable by a serving user.
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveIndex writes the index to a file on disk, atomically and durably: it
// is serialised to a temporary file next to path, fsynced and renamed into
// place, so neither a failed write nor a power loss leaves a truncated index.
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
