package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestBvecsRoundTrip(t *testing.T) {
	m := SIFTLike(25, 1) // quantised values in [0,160] fit bytes
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBvecs(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("bvecs round trip mismatch")
	}
}

func TestBvecsMaxN(t *testing.T) {
	m := SIFTLike(10, 2)
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBvecs(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 4 {
		t.Fatalf("read %d vectors", got.N)
	}
}

func TestWriteBvecsRejectsNonByteData(t *testing.T) {
	m := GloVeLike(5, 3) // zero-mean data has negatives
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, m); err == nil {
		t.Fatal("negative values should be rejected")
	}
}

func TestReadBvecsRejectsGarbage(t *testing.T) {
	if _, err := ReadBvecs(bytes.NewReader([]byte{0, 0, 0, 0}), 0); err == nil {
		t.Fatal("zero dimension should error")
	}
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, SIFTLike(1, 4)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBvecs(bytes.NewReader(raw[:len(raw)-3]), 0); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestLoadBvecsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.bvecs")
	m := SIFTLike(8, 5)
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBvecsFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadBvecsFile(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestReadBvecsU8MatchesWidened pins the dtype parity at the load layer:
// a uint8 load widened after the fact is element-identical to the widening
// loader, including under maxN truncation and the Split holdout.
func TestReadBvecsU8MatchesWidened(t *testing.T) {
	m := SIFTLike(25, 1)
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	wide, err := ReadBvecs(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	u8, err := ReadBvecsU8(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !u8.Widen().Equal(wide) {
		t.Fatal("uint8 load does not match widened load")
	}
	u8Trunc, err := ReadBvecsU8(bytes.NewReader(raw), 4)
	if err != nil {
		t.Fatal(err)
	}
	if u8Trunc.N != 4 {
		t.Fatalf("read %d vectors", u8Trunc.N)
	}
}

func TestReadBvecsU8RejectsGarbage(t *testing.T) {
	if _, err := ReadBvecsU8(bytes.NewReader([]byte{0, 0, 0, 0}), 0); err == nil {
		t.Fatal("zero dimension should error")
	}
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, SIFTLike(1, 4)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBvecsU8(bytes.NewReader(raw[:len(raw)-3]), 0); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestLoadBvecsU8(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.bvecs")
	m := SIFTLike(8, 5)
	var buf bytes.Buffer
	if err := WriteBvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBvecsU8(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Widen().Equal(m) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadBvecsU8(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestSplit(t *testing.T) {
	m := Uniform(100, 4, 6)
	data, queries := Split(m, 10)
	if data.N != 90 || queries.N != 10 {
		t.Fatalf("split %d/%d", data.N, queries.N)
	}
	// Strided: query rows are rows 0, 10, 20, ... of the original.
	for qi := 0; qi < queries.N; qi++ {
		orig := m.Row(qi * 10)
		for j, v := range queries.Row(qi) {
			if v != orig[j] {
				t.Fatalf("query %d not the expected source row", qi)
			}
		}
	}
}

func TestSplitEdgeCases(t *testing.T) {
	m := Uniform(10, 2, 7)
	data, queries := Split(m, 0)
	if data.N != 10 || queries.N != 0 {
		t.Fatalf("nQueries=0 split %d/%d", data.N, queries.N)
	}
	data, queries = Split(m, 100) // clamped to n-1
	if data.N != 1 || queries.N != 9 {
		t.Fatalf("oversized split %d/%d", data.N, queries.N)
	}
}

// writeFile is a test helper (os.WriteFile with default perms).
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
