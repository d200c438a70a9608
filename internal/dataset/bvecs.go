package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"gkmeans/internal/vec"
)

// bvecs is the byte-vector variant of fvecs used by the SIFT1B corpus: a
// little-endian int32 dimension header followed by that many uint8 values.
// ReadBvecs widens vectors to float32 on load, which is how every public
// SIFT1B consumer treats them; ReadBvecsU8 keeps them as bytes for the
// uint8 distance path (4x less memory, exact integer L2).

// ReadBvecs decodes a bvecs stream into a float32 matrix. maxN > 0 limits
// the number of vectors read.
func ReadBvecs(r io.Reader, maxN int) (*vec.Matrix, error) {
	br := bufio.NewReader(r)
	var rows [][]float32
	dim := -1
	for maxN <= 0 || len(rows) < maxN {
		var d int32
		err := binary.Read(br, binary.LittleEndian, &d)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading bvecs header: %w", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("dataset: bvecs vector %d has dimension %d", len(rows), d)
		}
		if dim == -1 {
			dim = int(d)
		} else if int(d) != dim {
			return nil, fmt.Errorf("dataset: bvecs vector %d has dimension %d, want %d", len(rows), d, dim)
		}
		raw := make([]uint8, d)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, fmt.Errorf("dataset: reading bvecs vector %d: %w", len(rows), err)
		}
		row := make([]float32, d)
		for i, b := range raw {
			row[i] = float32(b)
		}
		rows = append(rows, row)
	}
	return vec.FromRows(rows), nil
}

// ReadBvecsU8 decodes a bvecs stream into a uint8 matrix without widening:
// the same wire format as ReadBvecs, kept in the bytes the file actually
// holds. maxN > 0 limits the number of vectors read.
func ReadBvecsU8(r io.Reader, maxN int) (*vec.U8Matrix, error) {
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
		if d > vec.MaxU8Dim {
			return nil, fmt.Errorf("dataset: bvecs dimension %d exceeds the uint8 kernel cap %d", d, vec.MaxU8Dim)
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
	if dim == -1 {
		dim = 0
	}
	if n == 0 {
		return &vec.U8Matrix{Dim: dim}, nil
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
