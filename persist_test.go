package gkmeans

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gkmeans/internal/dataset"
)

// smallClusteredIndex builds a compact index with a clustering section so
// corruption tests cover every section of the .gkx container.
func smallClusteredIndex(t *testing.T) *Index {
	t.Helper()
	data := dataset.GloVeLike(80, 31)
	idx, err := Build(context.Background(), data,
		WithKappa(5), WithXi(15), WithTau(3), WithSeed(32),
		WithMaxIter(5), WithClusters(4))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// A write failure partway through SaveIndex must leave the previous file
// untouched and no temporary behind — a truncated .gkx at the target path
// would make a later gkserved -index refuse to start.
func TestWriteFileAtomicPreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.gkx")
	const sentinel = "previous good index bytes"
	if err := os.WriteFile(path, []byte(sentinel), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		// Write some bytes first so a non-atomic implementation would have
		// already truncated the target.
		if _, err := w.Write(make([]byte, 1024)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("injected write failure not propagated: %v", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("target file gone after failed save: %v", err)
	}
	if string(got) != sentinel {
		t.Fatalf("target file clobbered by failed save: %q", got)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileAtomicNoFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.gkx")
	err := writeFileAtomic(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return errors.New("interrupted")
	})
	if err == nil {
		t.Fatal("injected failure not propagated")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("failed save left a file at the target path: %v", serr)
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
}

// SaveIndex over an existing (possibly corrupt) file must replace it whole:
// afterwards LoadIndex sees only the new, complete index.
func TestSaveIndexReplacesExistingFile(t *testing.T) {
	idx := smallClusteredIndex(t)
	path := filepath.Join(t.TempDir(), "idx.gkx")
	if err := os.WriteFile(path, []byte("garbage that is not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatalf("load after overwrite: %v", err)
	}
	if loaded.N() != idx.N() || loaded.Clusters() == nil {
		t.Fatal("overwritten index incomplete")
	}
}

// Monolithic indexes must keep writing the v1 single-segment layout so
// .gkx files stay loadable by pre-sharding readers, and a load/save cycle
// must be byte-stable in both directions.
func TestMonolithicStaysVersion1(t *testing.T) {
	idx := smallClusteredIndex(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != 1 {
		t.Fatalf("monolithic index wrote format version %d, want 1", v)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sharded() {
		t.Fatal("v1 file loaded as sharded")
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("v1 load/save round-trip changed bytes")
	}
}

// smallShardedIndex builds a compact sharded index for the v2 corruption
// tests.
func smallShardedIndex(t *testing.T) *Index {
	t.Helper()
	data := dataset.SIFTLike(120, 13)
	idx, err := Build(context.Background(), data,
		WithShards(3), WithKappa(5), WithXi(15), WithTau(3), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// shardedBlob serialises the index and returns the bytes plus the offsets
// of the v2 layout landmarks used by the corruption tests.
func shardedBlob(t *testing.T, idx *Index) (whole []byte, tableOff, segmentsOff int) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	whole = buf.Bytes()
	// v2 layout: 24-byte header, matrix (8-byte shape + payload), segment
	// table (16 bytes per shard), then the segments.
	tableOff = 24 + 8 + 4*idx.N()*idx.Dim()
	segmentsOff = tableOff + 16*len(idx.segs)
	return whole, tableOff, segmentsOff
}

// Corrupt multi-segment containers — truncations (in the header, the
// segment table and the segments), a lying shard count and inconsistent
// table entries — must always produce an error: never a panic, never a
// misaligned read that "succeeds".
func TestReadShardedCorruptInputs(t *testing.T) {
	idx := smallShardedIndex(t)
	whole, tableOff, segmentsOff := shardedBlob(t, idx)
	if v := binary.LittleEndian.Uint32(whole[4:]); v != 2 {
		t.Fatalf("sharded index wrote format version %d, want 2", v)
	}

	mustErr := func(t *testing.T, name string, b []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: ReadIndexFrom panicked: %v", name, r)
			}
		}()
		if _, err := ReadIndexFrom(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: corrupt input accepted", name)
		}
	}

	t.Run("truncations", func(t *testing.T) {
		stride := len(whole) / 120
		if stride < 1 {
			stride = 1
		}
		for cut := 0; cut < len(whole); cut += stride {
			mustErr(t, fmt.Sprintf("cut at %d/%d", cut, len(whole)), whole[:cut])
		}
		// Boundary cuts: mid-header, table start, mid-table (the "truncated
		// segment table" case), segments start, mid-segment.
		for _, cut := range []int{4, 16, 20, tableOff, tableOff + 7, tableOff + 16, segmentsOff, segmentsOff + 3, len(whole) - 1} {
			mustErr(t, fmt.Sprintf("boundary cut at %d", cut), whole[:cut])
		}
	})

	t.Run("mutations", func(t *testing.T) {
		flip := func(mutate func(b []byte)) []byte {
			b := bytes.Clone(whole)
			mutate(b)
			return b
		}
		cases := []struct {
			name   string
			mutate func(b []byte)
		}{
			{"version 99", func(b []byte) { b[4] = 99 }},
			{"sharded flag missing", func(b []byte) {
				binary.LittleEndian.PutUint32(b[8:], 0)
			}},
			{"shard count zero", func(b []byte) {
				binary.LittleEndian.PutUint32(b[16:], 0)
			}},
			{"shard count one", func(b []byte) {
				binary.LittleEndian.PutUint32(b[16:], 1)
			}},
			{"shard count huge", func(b []byte) {
				binary.LittleEndian.PutUint32(b[16:], 0xFFFFFFFF)
			}},
			// The header says 4 shards but the table and segments hold 3:
			// the row sum no longer covers the dataset.
			{"shard count mismatch", func(b []byte) {
				binary.LittleEndian.PutUint32(b[16:], 4)
			}},
			{"table rows inflated", func(b []byte) {
				binary.LittleEndian.PutUint32(b[tableOff:], 9999)
			}},
			{"table rows zeroed", func(b []byte) {
				binary.LittleEndian.PutUint32(b[tableOff:], 0)
			}},
			{"table segment size wrong", func(b []byte) {
				binary.LittleEndian.PutUint64(b[tableOff+8:], 12)
			}},
			{"table segment size huge", func(b []byte) {
				binary.LittleEndian.PutUint64(b[tableOff+8:], 1<<50)
			}},
			{"segment graph magic", func(b []byte) { b[segmentsOff+8] ^= 0xFF }},
		}
		for _, c := range cases {
			mustErr(t, c.name, flip(c.mutate))
		}
	})
}

// Corrupt container inputs — truncations and targeted bit flips in every
// section — must always produce an error: never a panic, never a runaway
// allocation from an untrusted header.
func TestReadIndexFromCorruptInputs(t *testing.T) {
	idx := smallClusteredIndex(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Section offsets, from the container layout (persist.go): 16-byte
	// header, matrix (8-byte shape + payload), length-prefixed graph
	// section, clustering.
	const hdrEnd = 16
	matrixPayload := 4 * idx.N() * idx.Dim()
	graphSection := hdrEnd + 8 + matrixPayload
	graphSize := binary.LittleEndian.Uint64(whole[graphSection:])
	clustering := graphSection + 8 + int(graphSize)
	if clustering >= len(whole) {
		t.Fatalf("layout arithmetic wrong: clustering offset %d, file %d bytes", clustering, len(whole))
	}

	mustErr := func(t *testing.T, name string, b []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: ReadIndexFrom panicked: %v", name, r)
			}
		}()
		if _, err := ReadIndexFrom(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: corrupt input accepted", name)
		}
	}

	// Every strict prefix must fail cleanly, whichever section the cut
	// lands in.
	t.Run("truncations", func(t *testing.T) {
		stride := len(whole) / 150
		if stride < 1 {
			stride = 1
		}
		for cut := 0; cut < len(whole); cut += stride {
			mustErr(t, fmt.Sprintf("cut at %d/%d", cut, len(whole)), whole[:cut])
		}
		// Exact section boundaries are the interesting edge cases.
		for _, cut := range []int{hdrEnd, hdrEnd + 8, graphSection, graphSection + 8, clustering, len(whole) - 1} {
			mustErr(t, fmt.Sprintf("boundary cut at %d", cut), whole[:cut])
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		flip := func(mutate func(b []byte)) []byte {
			b := bytes.Clone(whole)
			mutate(b)
			return b
		}
		cases := []struct {
			name   string
			mutate func(b []byte)
		}{
			{"magic", func(b []byte) { b[0] ^= 0xFF }},
			{"version", func(b []byte) { b[4] = 99 }},
			{"matrix rows huge", func(b []byte) {
				binary.LittleEndian.PutUint32(b[hdrEnd:], 0xFFFFFF00) // allocation-guard territory
			}},
			{"matrix dim zero", func(b []byte) {
				binary.LittleEndian.PutUint32(b[hdrEnd+4:], 0)
			}},
			{"graph section size huge", func(b []byte) {
				binary.LittleEndian.PutUint64(b[graphSection:], 1<<50)
			}},
			{"graph magic", func(b []byte) { b[graphSection+8] ^= 0xFF }},
			{"graph node count huge", func(b []byte) {
				binary.LittleEndian.PutUint32(b[graphSection+12:], 0xFFFFFF00)
			}},
			{"graph kappa zero", func(b []byte) {
				binary.LittleEndian.PutUint32(b[graphSection+16:], 0)
			}},
			{"first list length over kappa", func(b []byte) {
				binary.LittleEndian.PutUint32(b[graphSection+20:], 0xFFFF)
			}},
			{"label out of range", func(b []byte) {
				// First label of the clustering section (after k and iters).
				binary.LittleEndian.PutUint32(b[clustering+8:], 0x7FFFFFFF)
			}},
			{"centroid dim zero", func(b []byte) {
				centroids := clustering + 8 + 4*idx.N()
				binary.LittleEndian.PutUint32(b[centroids+4:], 0)
			}},
		}
		for _, c := range cases {
			mustErr(t, c.name, flip(c.mutate))
		}
	})
}
