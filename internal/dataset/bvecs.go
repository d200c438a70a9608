package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"gkmeans/internal/vec"
)

// bvecs is the byte-vector variant of fvecs used by the SIFT1B corpus: a
// little-endian int32 dimension header followed by that many uint8 values.
// ReadBvecs widens vectors to float32 on load, which is how every public
// SIFT1B consumer treats them; ReadBvecsU8 keeps them as bytes for the
// uint8 distance path (4x less memory, exact integer L2). Both run the one
// parser below.

// ReadBvecs decodes a bvecs stream into a float32 matrix. maxN > 0 limits
// the number of vectors read. Unlike ReadBvecsU8 it accepts any
// dimensionality, vec.MaxU8Dim included and beyond: the widened rows never
// meet the integer kernels that cap exists for.
func ReadBvecs(r io.Reader, maxN int) (*vec.Matrix, error) {
	m, err := readBvecs(r, maxN, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	return m.Widen(), nil
}

// ReadBvecsU8 decodes a bvecs stream into a uint8 matrix without widening:
// the same wire format as ReadBvecs, kept in the bytes the file actually
// holds. maxN > 0 limits the number of vectors read; a dimensionality above
// vec.MaxU8Dim is refused.
func ReadBvecsU8(r io.Reader, maxN int) (*vec.U8Matrix, error) {
	return readBvecs(r, maxN, vec.MaxU8Dim)
}

// readBvecs is the bvecs parser: up to maxN vectors (all when maxN <= 0),
// each of one dimensionality no larger than maxDim. An empty stream is an
// empty matrix of Dim 0.
func readBvecs(r io.Reader, maxN int, maxDim int32) (*vec.U8Matrix, error) {
	br := bufio.NewReader(r)
	var data []uint8
	n, dim := 0, -1
	for maxN <= 0 || n < maxN {
		var d int32
		err := binary.Read(br, binary.LittleEndian, &d)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading bvecs header: %w", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("dataset: bvecs vector %d has dimension %d", n, d)
		}
		if d > maxDim {
			return nil, fmt.Errorf("dataset: bvecs dimension %d exceeds the uint8 kernel cap %d", d, maxDim)
		}
		if dim == -1 {
			dim = int(d)
		} else if int(d) != dim {
			return nil, fmt.Errorf("dataset: bvecs vector %d has dimension %d, want %d", n, d, dim)
		}
		data = append(data, make([]uint8, d)...)
		if _, err := io.ReadFull(br, data[len(data)-int(d):]); err != nil {
			return nil, fmt.Errorf("dataset: reading bvecs vector %d: %w", n, err)
		}
		n++
	}
	if n == 0 {
		return &vec.U8Matrix{}, nil
	}
	return &vec.U8Matrix{Data: data, N: n, Dim: dim}, nil
}

// WriteBvecs encodes a matrix as a bvecs stream. Values are rounded and
// clamped to [0,255]; it errors when a value is more than 0.5 outside that
// range (the caller is probably holding non-byte data).
func WriteBvecs(w io.Writer, m *vec.Matrix) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, uint32(m.Dim))
	raw := make([]uint8, m.Dim)
	for i := 0; i < m.N; i++ {
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		for j, v := range m.Row(i) {
			if v < -0.5 || v > 255.5 {
				return fmt.Errorf("dataset: value %v at row %d col %d does not fit a byte", v, i, j)
			}
			iv := int(v + 0.5)
			if iv < 0 {
				iv = 0
			}
			if iv > 255 {
				iv = 255
			}
			raw[j] = uint8(iv)
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadBvecsFile reads up to maxN vectors from a bvecs file.
func LoadBvecsFile(path string, maxN int) (*vec.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBvecs(f, maxN)
}

// LoadBvecsU8 reads up to maxN vectors from a bvecs file without widening
// them — the entry point of the uint8 distance path.
func LoadBvecsU8(path string, maxN int) (*vec.U8Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBvecsU8(f, maxN)
}

// Split partitions a matrix into a reference set and an evenly strided
// held-out query set of nQueries rows — the standard way this repository
// derives in-distribution ANN query sets. nQueries is clamped to [0, N-1].
func Split(m *vec.Matrix, nQueries int) (data, queries *vec.Matrix) {
	if nQueries >= m.N {
		nQueries = m.N - 1
	}
	if nQueries <= 0 {
		return m.Clone(), &vec.Matrix{Dim: m.Dim}
	}
	stride := m.N / nQueries
	dataIdx := make([]int, 0, m.N-nQueries)
	queryIdx := make([]int, 0, nQueries)
	for i := 0; i < m.N; i++ {
		if i%stride == 0 && len(queryIdx) < nQueries {
			queryIdx = append(queryIdx, i)
		} else {
			dataIdx = append(dataIdx, i)
		}
	}
	return m.SubsetRows(dataIdx), m.SubsetRows(queryIdx)
}
