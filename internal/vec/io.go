package vec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Matrix (de)serialisation: a tiny shape header {uint32 N, uint32 Dim}
// followed by the row-major payload, all little-endian — 4 bytes per value
// for a Matrix, 1 for a U8Matrix. The format is a building block for larger
// container files (the index persistence embeds it), so reads never consume
// more bytes than the matrix occupies.

// ioChunk is the streaming buffer size for the payload: large enough to
// amortise Write calls, small enough not to double peak memory.
const ioChunk = 1 << 16 // bytes per chunk (64 KiB)

// WriteMatrix serialises m to w and returns the number of bytes written.
func WriteMatrix(w io.Writer, m *Matrix) (int64, error) { return WriteRows(w, RowsF32(m)) }

// writeHeader writes the shape header. It stores both dimensions as uint32;
// a larger shape would round-trip silently truncated, so it is refused
// outright, before a byte is written (readShape additionally caps N and Dim
// at MaxInt32).
func writeHeader(w io.Writer, n, dim int) (int64, error) {
	if n < 0 || int64(n) > math.MaxUint32 || dim < 0 || int64(dim) > math.MaxUint32 {
		return 0, fmt.Errorf("vec: matrix shape %d×%d does not fit the uint32 header", n, dim)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(dim))
	k, err := w.Write(hdr[:])
	return int64(k), err
}

// writeF32 writes float32 values little-endian, one chunk at a time, and
// returns the number of bytes written.
func writeF32(w io.Writer, data []float32) (int, error) {
	written := 0
	buf := make([]byte, 0, ioChunk)
	for off := 0; off < len(data); off += ioChunk / 4 {
		buf = buf[:0]
		for _, v := range data[off:min(off+ioChunk/4, len(data))] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		k, err := w.Write(buf)
		written += k
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// readShape reads a shape header and checks it before anything is
// allocated from it: a corrupt file must fail with an error, not an OOM
// crash, so the payload is capped at 1 TiB of width-byte values.
func readShape(r io.Reader, width int64) (n, d int, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("vec: reading matrix header: %w", err)
	}
	n = int(binary.LittleEndian.Uint32(hdr[0:]))
	d = int(binary.LittleEndian.Uint32(hdr[4:]))
	switch {
	case n < 0 || d <= 0 || n > math.MaxInt32 || d > math.MaxInt32:
		return 0, 0, fmt.Errorf("vec: invalid matrix shape %d×%d", n, d)
	case width == 1 && d > MaxU8Dim:
		// The uint8 kernels need Dim ≤ MaxU8Dim for exact int32
		// accumulation; a file claiming more is corrupt or not ours.
		return 0, 0, fmt.Errorf("vec: uint8 matrix dim %d exceeds the kernel cap %d", d, MaxU8Dim)
	case int64(n)*int64(d) > (1<<40)/width:
		return 0, 0, fmt.Errorf("vec: implausible matrix shape %d×%d", n, d)
	}
	return n, d, nil
}

// ReadMatrix deserialises a matrix written by WriteMatrix. It reads exactly
// the matrix's bytes from r — safe to call mid-stream.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	n, d, err := readShape(r, 4)
	if err != nil {
		return nil, err
	}
	// The shape is still untrusted: grow the payload with the bytes that
	// actually arrive instead of allocating n×d up front, so a lying header
	// over a short stream fails at EOF having allocated one chunk, not
	// gigabytes (repeatedly zeroing huge reused spans is also what a fuzzer
	// would otherwise spend all its time on).
	total := int64(n) * int64(d)
	data := make([]float32, 0, min(total, ioChunk/4))
	buf := make([]byte, ioChunk)
	for off := int64(0); off < total; off += ioChunk / 4 {
		chunk := buf[:4*(min(off+ioChunk/4, total)-off)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
		}
		for i := 0; i < len(chunk); i += 4 {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(chunk[i:])))
		}
	}
	return &Matrix{Data: data, N: n, Dim: d}, nil
}

// readU8Matrix is ReadMatrix for a byte payload.
func readU8Matrix(r io.Reader) (*U8Matrix, error) {
	n, d, err := readShape(r, 1)
	if err != nil {
		return nil, err
	}
	total := int64(n) * int64(d)
	data := make([]uint8, 0, min(total, ioChunk))
	buf := make([]byte, ioChunk)
	for off := int64(0); off < total; off += ioChunk {
		chunk := buf[:min(off+ioChunk, total)-off]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
		}
		data = append(data, chunk...)
	}
	return &U8Matrix{Data: data, N: n, Dim: d}, nil
}
