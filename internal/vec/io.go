package vec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"unsafe"
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
// the matrix's bytes from r — safe to call mid-stream. On a source that
// reports its byte budget (Budget) the payload is one allocation at its size,
// and on a little-endian host the rows are read straight into it, the
// matrix format's float32 layout being the host's.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	n, d, err := readShape(r, 4)
	if err != nil {
		return nil, err
	}
	total := int64(n) * int64(d)
	floor, err := payloadFloor(r, total, 4)
	if err != nil {
		return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
	}
	var data []float32
	for int64(len(data)) < total {
		data = Grow(data, 1, floor, total)
		dst := data[len(data):cap(data)]
		if littleEndian {
			_, err = io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)))
		} else {
			err = decodeF32(r, dst)
		}
		if err != nil {
			return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
		}
		data = data[:cap(data)]
	}
	return &Matrix{Data: data, N: n, Dim: d}, nil
}

// littleEndian reports whether the host stores a float32 as the matrix
// format does, so that ReadMatrix can read the payload without decoding it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeF32 fills dst with little-endian float32 values from r, one chunk
// at a time: ReadMatrix's payload on a big-endian host.
func decodeF32(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*min(len(dst), ioChunk/4))
	for off := 0; off < len(dst); off += len(buf) / 4 {
		chunk := buf[:4*min(len(dst)-off, len(buf)/4)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for i := range len(chunk) / 4 {
			dst[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(chunk[4*i:]))
		}
	}
	return nil
}

// readU8Matrix is ReadMatrix for a byte payload, which needs no decoding on
// any host: it is read straight into the matrix.
func readU8Matrix(r io.Reader) (*U8Matrix, error) {
	n, d, err := readShape(r, 1)
	if err != nil {
		return nil, err
	}
	total := int64(n) * int64(d)
	floor, err := payloadFloor(r, total, 1)
	if err != nil {
		return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
	}
	var data []uint8
	for int64(len(data)) < total {
		data = Grow(data, 1, floor, total)
		if _, err := io.ReadFull(r, data[len(data):cap(data)]); err != nil {
			return nil, fmt.Errorf("vec: reading matrix payload: %w", err)
		}
		data = data[:cap(data)]
	}
	return &U8Matrix{Data: data, N: n, Dim: d}, nil
}

// Budget returns how many more bytes r can supply, or -1 when r does not
// say. Only sources that know it exactly say: an in-memory reader's unread
// length (bytes.Reader, bytes.Buffer, strings.Reader) and a regular file's
// size past its offset. An io.LimitedReader's N caps the bytes that will be
// read and says nothing about the bytes there are, so it is never a budget
// on its own; over a source that has one it only cuts that budget to N.
func Budget(r io.Reader) int64 {
	switch r := r.(type) {
	case *bytes.Reader:
		return int64(r.Len())
	case *bytes.Buffer:
		return int64(r.Len())
	case *strings.Reader:
		return int64(r.Len())
	case *io.LimitedReader:
		if b := Budget(r.R); b >= 0 {
			return max(min(b, r.N), 0)
		}
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		if off, err := r.Seek(0, io.SeekCurrent); err == nil && off <= fi.Size() {
			return fi.Size() - off
		}
	}
	return -1
}

// payloadFloor returns the Grow floor of a payload of total width-byte
// elements read from r. When r reports its Budget, that is the whole
// payload, so an honest header is one allocation at its size, and a payload
// the budget cannot hold fails here with the EOF its read would meet, before
// anything is allocated. Otherwise it is one chunk.
func payloadFloor(r io.Reader, total, width int64) (int64, error) {
	switch b := Budget(r); {
	case b < 0:
		return ioChunk / width, nil
	case b == 0 && total > 0:
		return 0, io.EOF
	case total > b/width:
		return 0, io.ErrUnexpectedEOF
	}
	return total, nil
}

// Grow makes room for c more elements of s, whose final length is known
// only from an untrusted header as limit. Capacity starts at floor and
// doubles with the elements that have actually arrived, capped at limit
// (but never below what c needs). A reader that grows what it decodes this
// way fails at EOF on a lying header having allocated at most about twice
// the bytes it read, and an honest header ends at exactly limit. (Zeroing
// huge spans up front is also what a fuzzer would otherwise spend all its
// time on.) A reader whose source reports its byte budget (Budget) passes a
// sized floor instead: the whole payload, once the budget has shown it can
// hold it (ReadMatrix), or every element the budget holds (a graph's
// neighbours). That is one allocation at exactly limit for an honest
// header, and at most the budget for a lying one.
func Grow[T any](s []T, c int, floor, limit int64) []T {
	if len(s)+c <= cap(s) {
		return s
	}
	grown := make([]T, len(s), int(max(min(max(2*int64(cap(s)), floor), limit), int64(len(s)+c))))
	copy(grown, s)
	return grown
}
