package vec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// Budget trusts only sources that know how many bytes they still hold, and
// an io.LimitedReader only as a cut of its own source's budget.
func TestBudget(t *testing.T) {
	ten := []byte("0123456789")
	read3 := bytes.NewReader(ten)
	if _, err := read3.Read(make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ten")
	if err := os.WriteFile(path, ten, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	bare := struct{ io.Reader }{bytes.NewReader(ten)}
	for _, tc := range []struct {
		name string
		r    io.Reader
		want int64
	}{
		{"bytes.Reader", bytes.NewReader(ten), 10},
		{"bytes.Reader after 3 bytes", read3, 7},
		{"bytes.Buffer", bytes.NewBuffer(ten), 10},
		{"strings.Reader", strings.NewReader("0123"), 4},
		{"file at offset 4", f, 6},
		{"pipe", pr, -1},
		{"bare stream", bare, -1},
		{"limited bare stream", io.LimitReader(bare, 5), -1},
		{"limited bytes.Reader, N below", io.LimitReader(bytes.NewReader(ten), 4), 4},
		{"limited bytes.Reader, N above", io.LimitReader(bytes.NewReader(ten), 1<<40), 10},
	} {
		if got := Budget(tc.r); got != tc.want {
			t.Errorf("Budget(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A payload reads to the same matrix, with no capacity to spare, whether
// its source reports a budget (one allocation) or not (grown with the
// stream); and a header that claims more than a sized source holds fails
// with the EOF the read would meet.
func TestReadPayloadFromEverySource(t *testing.T) {
	m := NewMatrix(1000, 100) // several 64 KiB chunks
	for i := range m.Data {
		m.Data[i] = float32(i%977) - 0.25
	}
	b := NewU8Matrix(3000, 100)
	for i := range b.Data {
		b.Data[i] = uint8(i * 7)
	}
	for _, rows := range []Rows{RowsF32(m), RowsU8(b)} {
		var buf bytes.Buffer
		if _, err := WriteRows(&buf, rows); err != nil {
			t.Fatal(err)
		}
		blob := buf.Bytes()
		for via, r := range map[string]func() io.Reader{
			"sized":   func() io.Reader { return bytes.NewReader(blob) },
			"unsized": func() io.Reader { return struct{ io.Reader }{bytes.NewReader(blob)} },
		} {
			got, err := ReadRows(r(), rows.U8() != nil)
			if err != nil {
				t.Fatalf("%s: %v", via, err)
			}
			var again bytes.Buffer
			if _, err := WriteRows(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), blob) {
				t.Fatalf("%s: payload changed in the round trip", via)
			}
			if f := got.F32(); f != nil && cap(f.Data) != len(f.Data) {
				t.Fatalf("%s: float payload has capacity %d for %d values", via, cap(f.Data), len(f.Data))
			}
			if u := got.U8(); u != nil && cap(u.Data) != len(u.Data) {
				t.Fatalf("%s: byte payload has capacity %d for %d values", via, cap(u.Data), len(u.Data))
			}
		}
		for cut, want := range map[int]error{8: io.EOF, len(blob) - 1: io.ErrUnexpectedEOF} {
			if _, err := ReadRows(bytes.NewReader(blob[:cut]), rows.U8() != nil); !errors.Is(err, want) {
				t.Fatalf("a payload cut to %d of %d bytes: err = %v, want %v", cut, len(blob), err, want)
			}
		}
	}
}
