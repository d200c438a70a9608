package vec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// U8Matrix (de)serialisation mirrors the float32 format in io.go: the same
// 8-byte {N, Dim} little-endian header followed by the row-major payload,
// one byte per value. Reads never consume more bytes than the matrix
// occupies, so the .gkx container can embed it mid-stream.

// u8IOChunk is the streaming buffer size for the byte payload.
const u8IOChunk = 4 * ioChunk // bytes per chunk (64 KiB)

// WriteU8Matrix serialises m to w and returns the number of bytes written.
func WriteU8Matrix(w io.Writer, m *U8Matrix) (int64, error) {
	if m.N < 0 || int64(m.N) > math.MaxUint32 || m.Dim < 0 || int64(m.Dim) > math.MaxUint32 {
		return 0, fmt.Errorf("vec: matrix shape %d×%d does not fit the uint32 header", m.N, m.Dim)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.N))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Dim))
	n, err := w.Write(hdr[:])
	written := int64(n)
	if err != nil {
		return written, err
	}
	for off := 0; off < len(m.Data); off += u8IOChunk {
		end := off + u8IOChunk
		if end > len(m.Data) {
			end = len(m.Data)
		}
		n, err := w.Write(m.Data[off:end])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadU8Matrix deserialises a matrix written by WriteU8Matrix. It reads
// exactly the matrix's bytes from r — safe to call mid-stream.
func ReadU8Matrix(r io.Reader) (*U8Matrix, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("vec: reading matrix header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	d := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n < 0 || d <= 0 || n > math.MaxInt32 || d > math.MaxInt32 {
		return nil, fmt.Errorf("vec: invalid matrix shape %d×%d", n, d)
	}
	// The uint8 kernels need Dim ≤ MaxU8Dim for exact int32 accumulation;
	// a file claiming more is corrupt or not ours.
	if d > MaxU8Dim {
		return nil, fmt.Errorf("vec: uint8 matrix dim %d exceeds the kernel cap %d", d, MaxU8Dim)
	}
	// Same untrusted-header discipline as ReadMatrix: plausibility cap, then
	// grow the payload with the bytes that actually arrive so a lying header
	// over a short stream fails at EOF having allocated one chunk.
	total := int64(n) * int64(d)
	if total > 1<<40 {
		return nil, fmt.Errorf("vec: implausible matrix shape %d×%d", n, d)
	}
	capHint := total
	if capHint > u8IOChunk {
		capHint = u8IOChunk
	}
	data := make([]uint8, 0, capHint)
	buf := make([]byte, u8IOChunk)
	for off := int64(0); off < total; off += u8IOChunk {
		end := off + u8IOChunk
		if end > total {
			end = total
		}
		chunk := buf[:end-off]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
		}
		data = append(data, chunk...)
	}
	return &U8Matrix{Data: data, N: n, Dim: d}, nil
}
