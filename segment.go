package gkmeans

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"gkmeans/internal/checked"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

// An encoded segment is the built state of one appended segment — what
// Append computed from its rows — so that a log which records both the rows
// and this state can rebuild an index without building anything again: the
// serving layer writes one after each memtable flush and adopts it on
// replay. Layout (little-endian):
//
//	header  52 bytes: uint32 magic "GKSG", uint32 base id, uint64
//	        generation, the build options as a v7 header stores them
//	        (uint32 κ, ξ, τ, int64 seed, uint32 builder word), uint32
//	        dtype word, uint32 routing centroids per segment (0 =
//	        unrouted), uint32 CRC-32 (IEEE) of the rows as
//	        vec.WriteRows encodes them
//	graph   the segment's k-NN graph (knngraph.WriteSection)
//	[routed: the segment's routing centroids (vec.WriteMatrix)]
//
// Tombstones are not part of it: a delete is logged on its own and applied
// after the segment is adopted, as after a build.
const segmentMagic = uint32(0x474b5347) // "GKSG"

// segmentHeader is the fixed part of an encoded segment, in layout order.
type segmentHeader struct {
	Magic   uint32
	Base    uint32
	Gen     uint64
	Options [24]byte // as a v7 header stores them (config.appendOptions)
	DType   uint32
	Routing uint32
	RowsCRC uint32
}

// encodedHeader returns the header of a segment of x with ids from base on,
// generation gen and rows whose CRC is crc.
func (x *Index) encodedHeader(base int32, gen uint64, crc uint32) segmentHeader {
	h := segmentHeader{Magic: segmentMagic, Base: uint32(base), Gen: gen, RowsCRC: crc}
	copy(h.Options[:], x.cfg.appendOptions(nil))
	if x.DType() == DTypeUint8 {
		h.DType = dtypeWordU8
	}
	if x.route != nil {
		h.Routing = checked.U32(x.route.K())
	}
	return h
}

// rowsCRC returns the CRC-32 of rows as vec.WriteRows encodes them, shape
// included.
func rowsCRC(rows vec.Rows) (uint32, error) {
	h := crc32.NewIEEE()
	_, err := vec.WriteRows(h, rows)
	return h.Sum32(), err
}

// EncodeSegment returns the built state of segment i (see Shards): its
// generation and base id, the index's build options, a CRC of its rows, its
// k-NN graph and, on a routed index, its routing centroids. AppendEncoded
// turns the state back into the segment without building it. Only a segment
// whose ids run on from a base (an appended one; not a routed Build's or a
// compaction's id map) encodes. The segment's tombstones are not included.
func (x *Index) EncodeSegment(i int) ([]byte, error) {
	if i < 0 || i >= len(x.segs) {
		return nil, fmt.Errorf("gkmeans: EncodeSegment(%d) on an index with %d segments", i, len(x.segs))
	}
	s := &x.segs[i]
	if s.ids != nil {
		return nil, fmt.Errorf("gkmeans: segment %d carries an id map; only a segment with contiguous ids encodes", i)
	}
	size := int64(binary.Size(segmentHeader{})) + s.graph.SectionSize()
	if x.route != nil {
		size += 8 + 4*int64(x.route.Centroids(i).N)*int64(x.Dim())
	}
	crc, err := rowsCRC(s.rows)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := binary.Write(buf, binary.LittleEndian, x.encodedHeader(s.base, s.gen, crc)); err != nil {
		return nil, err
	}
	if _, err := s.graph.WriteSection(buf); err != nil {
		return nil, err
	}
	if x.route != nil {
		if _, err := vec.WriteMatrix(buf, x.route.Centroids(i)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// AppendEncoded is Append for vectors whose segment an earlier Append built
// and EncodeSegment encoded: it returns the index Append would, without
// building a graph or routing centroids. The state is adopted only when it
// is what Append would build here — its base id is IDBound(), its generation
// the next one, its build options, dtype and routing are the receiver's, its
// CRC is that of vectors, its graph has one valid node per row and its
// routing centroids are min(k, rows)×Dim() — and refused with an error
// naming the first mismatch otherwise; the caller then builds with Append.
func (x *Index) AppendEncoded(ctx context.Context, vectors *Matrix, state []byte) (*Index, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	own, err := x.appendRows(vectors)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(state)
	var got segmentHeader
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("gkmeans: encoded segment of %d bytes: %w", len(state), err)
	}
	crc, err := rowsCRC(own)
	if err != nil {
		return nil, err
	}
	want := x.encodedHeader(x.nextID, x.maxGen()+1, crc)
	if got.Options != want.Options {
		return nil, fmt.Errorf("gkmeans: encoded segment was built with other options (κ, ξ, τ, seed or builder) than this index's")
	}
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"magic", uint64(got.Magic), uint64(want.Magic)},
		{"base id", uint64(got.Base), uint64(want.Base)},
		{"generation", got.Gen, want.Gen},
		{"dtype word", uint64(got.DType), uint64(want.DType)},
		{"routing centroids per segment", uint64(got.Routing), uint64(want.Routing)},
		{"rows CRC", uint64(got.RowsCRC), uint64(want.RowsCRC)},
	} {
		if f.got != f.want {
			return nil, fmt.Errorf("gkmeans: encoded segment's %s is %#x, this append's is %#x", f.name, f.got, f.want)
		}
	}
	g, err := knngraph.ReadSection(r)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: encoded segment: %w", err)
	}
	sc, err := newSegCore(own, g, x.cfg.entries)
	if err != nil {
		return nil, fmt.Errorf("gkmeans: encoded segment: %w", err)
	}
	var cents *Matrix
	if x.route != nil {
		if cents, err = vec.ReadMatrix(r); err != nil {
			return nil, fmt.Errorf("gkmeans: encoded segment's routing centroids: %w", err)
		}
		if k := min(x.route.K(), own.N); cents.N != k || cents.Dim != own.Dim {
			return nil, fmt.Errorf("gkmeans: encoded segment has %d×%d routing centroids, want %d×%d", cents.N, cents.Dim, k, own.Dim)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("gkmeans: encoded segment has %d trailing bytes", r.Len())
	}
	return x.withSegment(sc, cents, 0)
}
