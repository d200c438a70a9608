package vec

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

func TestMatrixIORoundTrip(t *testing.T) {
	m := NewMatrix(37, 11) // deliberately not a multiple of the chunk size
	for i := range m.Data {
		m.Data[i] = float32(i)*0.5 - 9
	}
	var buf bytes.Buffer
	n, err := WriteMatrix(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteMatrix reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("matrix round trip mismatch")
	}
}

func TestMatrixIOMidStream(t *testing.T) {
	// ReadMatrix must consume exactly the matrix's bytes.
	m := NewMatrix(5, 3)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	var buf bytes.Buffer
	if _, err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("tail")
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("round trip mismatch")
	}
	if buf.String() != "tail" {
		t.Fatalf("ReadMatrix over-read: %q left", buf.String())
	}
}

func TestReadMatrixRejectsTruncated(t *testing.T) {
	m := NewMatrix(10, 4)
	var buf bytes.Buffer
	if _, err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-7]
	if _, err := ReadMatrix(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload should error")
	}
	if _, err := ReadMatrix(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated header should error")
	}
}

func TestWriteMatrixRejectsOversizedShape(t *testing.T) {
	// The header stores N and Dim as uint32; a shape that cannot round-trip
	// must be refused up front rather than silently truncated.
	shapes := []*Matrix{{N: -1, Dim: 4}}
	// A shape past uint32 exists only where int is 64 bits wide; built at
	// run time, the case compiles on 32-bit targets too.
	if strconv.IntSize == 64 {
		over := int64(math.MaxUint32) + 1
		shapes = append(shapes, &Matrix{N: int(over), Dim: 4}, &Matrix{N: 4, Dim: int(over)})
	}
	var buf bytes.Buffer
	for _, m := range shapes {
		if _, err := WriteMatrix(&buf, m); err == nil {
			t.Errorf("WriteMatrix accepted shape %d×%d", m.N, m.Dim)
		}
		if buf.Len() != 0 {
			t.Fatalf("WriteMatrix emitted %d bytes before rejecting the shape", buf.Len())
		}
	}
}

// A payload of several chunks, grown with the stream, decodes to the bytes
// it was written from and ends with no capacity to spare.
func TestReadPayloadAcrossChunks(t *testing.T) {
	m := NewMatrix(1000, 100) // 400 KB of floats: several 64 KiB chunks
	for i := range m.Data {
		m.Data[i] = float32(i%977) - 0.25
	}
	b := NewU8Matrix(3000, 100) // 300 KB of bytes
	for i := range b.Data {
		b.Data[i] = uint8(i * 7)
	}
	for _, rows := range []Rows{RowsF32(m), RowsU8(b)} {
		var buf bytes.Buffer
		if _, err := WriteRows(&buf, rows); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRows(bytes.NewReader(buf.Bytes()), rows.U8() != nil)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if _, err := WriteRows(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatal("payload changed in the round trip")
		}
		if f := got.F32(); f != nil && cap(f.Data) != len(f.Data) {
			t.Fatalf("float payload has capacity %d for %d values", cap(f.Data), len(f.Data))
		}
		if u := got.U8(); u != nil && cap(u.Data) != len(u.Data) {
			t.Fatalf("byte payload has capacity %d for %d values", cap(u.Data), len(u.Data))
		}
	}
}
