package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Record payloads of the mutation log. Three operations exist:
//
//	insert:  uint8 kind (1), uint32 first external id, uint32 dim,
//	         uint32 count, count×dim float32 vectors (row-major)
//	delete:  uint8 kind (2), uint32 count, count×uint32 external ids
//	segment: uint8 kind (3), uint32 first external id, uint32 count,
//	         the built state of the shard a flush made of the rows with
//	         ids first..first+count-1 (opaque here; the index package
//	         encodes it, see gkmeans.Index.EncodeSegment)
//
// An insert carries the external id of its first vector so replay is
// idempotent against an index checkpoint: an op whose ids are already
// below the checkpoint's id bound was folded into the checkpoint before a
// crash and is skipped, never applied twice. A segment record follows the
// insert whose rows filled the memtable: replay adopts it in place of
// building those rows again, and builds them as before when it is missing,
// torn or refused.
const (
	opInsert  = uint8(1)
	opDelete  = uint8(2)
	opSegment = uint8(3)
)

// Op is one decoded mutation record.
type Op struct {
	Insert  bool      // true: insert, false: delete or segment
	FirstID int32     // insert, segment: external id of the first row
	Dim     int       // insert: vector dimensionality
	Vectors []float32 // insert: Count() rows, row-major
	IDs     []int32   // delete: external ids to tombstone
	Rows    int       // segment: rows the built shard holds
	Segment []byte    // segment: the shard's built state; nil for the other kinds
}

// Count returns the number of rows an insert op carries.
func (op Op) Count() int {
	if op.Dim == 0 {
		return 0
	}
	return len(op.Vectors) / op.Dim
}

// EncodeInsert builds an insert payload. vectors is row-major with
// len(vectors) = count×dim.
func EncodeInsert(firstID int32, dim int, vectors []float32) ([]byte, error) {
	if dim <= 0 || len(vectors) == 0 || len(vectors)%dim != 0 {
		return nil, fmt.Errorf("wal: insert of %d floats at dimensionality %d", len(vectors), dim)
	}
	if firstID < 0 {
		return nil, fmt.Errorf("wal: negative insert id %d", firstID)
	}
	count := len(vectors) / dim
	buf := make([]byte, 13+4*len(vectors))
	buf[0] = opInsert
	binary.LittleEndian.PutUint32(buf[1:5], uint32(firstID))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(dim))
	binary.LittleEndian.PutUint32(buf[9:13], uint32(count))
	for i, v := range vectors {
		binary.LittleEndian.PutUint32(buf[13+4*i:], math.Float32bits(v))
	}
	return buf, nil
}

// EncodeDelete builds a delete payload.
func EncodeDelete(ids []int32) ([]byte, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("wal: empty delete")
	}
	buf := make([]byte, 5+4*len(ids))
	buf[0] = opDelete
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(ids)))
	for i, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("wal: negative delete id %d", id)
		}
		binary.LittleEndian.PutUint32(buf[5+4*i:], uint32(id))
	}
	return buf, nil
}

// EncodeSegment builds a segment payload: the built state of the shard
// over the count rows with ids firstID..firstID+count-1.
func EncodeSegment(firstID int32, count int, state []byte) ([]byte, error) {
	if firstID < 0 || count <= 0 || int64(firstID)+int64(count) > math.MaxInt32 || len(state) == 0 {
		return nil, fmt.Errorf("wal: segment of %d rows at id %d with %d bytes of state", count, firstID, len(state))
	}
	buf := make([]byte, 9, 9+len(state))
	buf[0] = opSegment
	binary.LittleEndian.PutUint32(buf[1:5], uint32(firstID))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(count))
	return append(buf, state...), nil
}

// Decode parses one record payload. Every length is validated against the
// payload's actual size — a record that frames correctly (CRC intact) but
// encodes an inconsistent op is rejected, so a logic bug cannot smuggle a
// half-meaningful mutation through replay.
func Decode(payload []byte) (Op, error) {
	if len(payload) == 0 {
		return Op{}, fmt.Errorf("wal: empty op payload")
	}
	switch payload[0] {
	case opInsert:
		if len(payload) < 13 {
			return Op{}, fmt.Errorf("wal: insert op of %d bytes", len(payload))
		}
		firstID := binary.LittleEndian.Uint32(payload[1:5])
		dim := binary.LittleEndian.Uint32(payload[5:9])
		count := binary.LittleEndian.Uint32(payload[9:13])
		if firstID > math.MaxInt32 || dim == 0 || count == 0 {
			return Op{}, fmt.Errorf("wal: insert op with id %d, dim %d, count %d", firstID, dim, count)
		}
		want := uint64(dim) * uint64(count) * 4
		if uint64(len(payload)-13) != want {
			return Op{}, fmt.Errorf("wal: insert op payload is %d bytes, header says %d", len(payload)-13, want)
		}
		if uint64(firstID)+uint64(count) > math.MaxInt32 {
			return Op{}, fmt.Errorf("wal: insert op ids %d..%d overflow int32", firstID, uint64(firstID)+uint64(count))
		}
		vecs := make([]float32, int(dim)*int(count))
		for i := range vecs {
			vecs[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[13+4*i:]))
		}
		return Op{Insert: true, FirstID: int32(firstID), Dim: int(dim), Vectors: vecs}, nil
	case opDelete:
		if len(payload) < 5 {
			return Op{}, fmt.Errorf("wal: delete op of %d bytes", len(payload))
		}
		count := binary.LittleEndian.Uint32(payload[1:5])
		if count == 0 {
			return Op{}, fmt.Errorf("wal: empty delete op")
		}
		if uint64(len(payload)-5) != uint64(count)*4 {
			return Op{}, fmt.Errorf("wal: delete op payload is %d bytes, header says %d ids", len(payload)-5, count)
		}
		ids := make([]int32, count)
		for i := range ids {
			v := binary.LittleEndian.Uint32(payload[5+4*i:])
			if v > math.MaxInt32 {
				return Op{}, fmt.Errorf("wal: delete id %d overflows int32", v)
			}
			ids[i] = int32(v)
		}
		return Op{IDs: ids}, nil
	case opSegment:
		if len(payload) < 10 {
			return Op{}, fmt.Errorf("wal: segment op of %d bytes", len(payload))
		}
		firstID := binary.LittleEndian.Uint32(payload[1:5])
		count := binary.LittleEndian.Uint32(payload[5:9])
		if firstID > math.MaxInt32 || count == 0 || uint64(firstID)+uint64(count) > math.MaxInt32 {
			return Op{}, fmt.Errorf("wal: segment op with id %d, count %d", firstID, count)
		}
		return Op{FirstID: int32(firstID), Rows: int(count), Segment: bytes.Clone(payload[9:])}, nil
	}
	return Op{}, fmt.Errorf("wal: unknown op kind %d", payload[0])
}
