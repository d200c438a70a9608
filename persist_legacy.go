package gkmeans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"gkmeans/internal/checked"
)

// Read-only support for the .gkx layouts earlier releases wrote. Nothing
// here parses a body: each version's header — and v2's narrower segment
// table, v1's missing one — is translated into the gkxHeader readBody
// loads, so the per-version knowledge is header fields and cross-checks.
// None of them stores build options: their indexes build new shards with
// the defaults (κ=50, ξ=50, τ=10, seed 0, the GK-means builder).
//
//	v1  magic, version, flags (bit 0: clustering), entries; then dataset,
//	    one graph section, [clustering] — a v7 body without the table
//	v2  … flags (bit 1 required), entries, shard count (>= 2), reserved;
//	    dataset; table of {uint32 rows, 4 pad bytes, uint64 graph size};
//	    graph sections
//	v3  … flags (bits 1, 2), entries, segment count, id bound; v7 body
//	v4  v3 with bit 3 required and the routing trailer
//	v5  v3/v4 with bit 4 required and a dtype word (1) ahead of the segment
//	    count — the v6 header, uint8 only
//	v6  the v7 header without the build options, for every state
//
// v2–v5 never carried a clustering, v1–v4 never bytes.
const (
	indexVersionSingle  = uint32(1)
	indexVersionSharded = uint32(2)
	indexVersionMutable = uint32(3)
	indexVersionRouted  = uint32(4)
	indexVersionU8      = uint32(5)
	indexVersionNoOpts  = uint32(6)
)

// readLegacy completes h — version, flags and entries already filled in —
// from the rest of a v1–v6 header, consuming exactly that header from r.
func (h *gkxHeader) readLegacy(r io.Reader) error {
	u8, routed := h.flags&flagU8 != 0, h.flags&flagRouting != 0
	switch {
	case h.version > indexVersion:
		return fmt.Errorf("gkmeans: unsupported index version %d: written by a newer release (this one reads versions 1 to %d)", h.version, indexVersion)
	case h.version < indexVersionSingle:
		return fmt.Errorf("gkmeans: unsupported index version %d (want 1 to %d)", h.version, indexVersion)
	case h.version == indexVersionNoOpts:
		return h.readShape(r)
	case u8 != (h.version == indexVersionU8):
		return fmt.Errorf("gkmeans: v%d index with uint8 flag %t — dtype/flag mismatch (flags %#x)", h.version, u8, h.flags)
	case h.version == indexVersionSharded && h.flags&flagSharded == 0:
		return fmt.Errorf("gkmeans: v2 index without the sharded flag (flags %#x)", h.flags)
	case h.version == indexVersionMutable && routed:
		return fmt.Errorf("gkmeans: v3 index with the routing flag (flags %#x)", h.flags)
	case h.version == indexVersionRouted && !routed:
		return fmt.Errorf("gkmeans: v4 index without the routing flag (flags %#x)", h.flags)
	}
	h.idBound = -1
	switch h.version {
	case indexVersionSingle:
		// Bit 0 is all v1 defines; the header ends here.
		h.flags &= flagClusters
		h.segs, h.table = 1, tableV1
		return nil
	case indexVersionSharded:
		var tail [2]uint32 // shard count, reserved
		if err := binary.Read(r, binary.LittleEndian, tail[:]); err != nil {
			return fmt.Errorf("gkmeans: reading sharded header: %w", err)
		}
		if tail[0] < 2 {
			return fmt.Errorf("gkmeans: implausible shard count %d", tail[0])
		}
		h.flags = flagSharded
		h.segs, h.table = int(tail[0]), tableV2
		return nil
	case indexVersionU8:
		var dtype uint32
		if err := binary.Read(r, binary.LittleEndian, &dtype); err != nil {
			return fmt.Errorf("gkmeans: reading dtype word: %w", err)
		}
		if dtype != dtypeWordU8 {
			return fmt.Errorf("gkmeans: bad dtype word %d (a v5 container stores uint8, word %d)", dtype, dtypeWordU8)
		}
		h.cfg.dtype = DTypeUint8
	}
	var tail [2]uint32 // segment count, id bound
	if err := binary.Read(r, binary.LittleEndian, tail[:]); err != nil {
		return fmt.Errorf("gkmeans: reading mutable header: %w", err)
	}
	h.flags &^= flagClusters // bit 0 meant nothing to v3–v5
	h.segs, h.idBound = int(tail[0]), int64(tail[1])
	return nil
}

// tableV1 stands in for the table v1 does not have: one segment over every
// row at base 0. The size a table would have stated is the graph section's
// own length prefix, so that is read here and handed back to the loader at
// the front of the reader it continues with.
func tableV1(r io.Reader, _, rows int) ([]segmentEntry, io.Reader, error) {
	var prefix [8]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, nil, fmt.Errorf("v1 graph section prefix: %w", err)
	}
	size := 8 + binary.LittleEndian.Uint64(prefix[:])
	return []segmentEntry{{Rows: checked.U32(rows), Size: size}}, io.MultiReader(bytes.NewReader(prefix[:]), r), nil
}

// tableV2 reads v2's 16-byte table entries: shards are Build-time segments,
// each at the base its row offset implies.
func tableV2(r io.Reader, segs, _ int) ([]segmentEntry, io.Reader, error) {
	narrow := make([]struct {
		Rows uint32
		_    uint32
		Size uint64
	}, segs)
	if err := binary.Read(r, binary.LittleEndian, narrow); err != nil {
		return nil, nil, err
	}
	table, base := make([]segmentEntry, segs), uint32(0)
	for s, e := range narrow {
		table[s] = segmentEntry{Rows: e.Rows, Size: e.Size, Base: base}
		base += e.Rows // wraps only when the rows cannot sum to the dataset's, which readBody rejects
	}
	return table, r, nil
}
