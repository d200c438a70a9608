package knngraph

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"gkmeans/internal/dataset"
)

// Every message Validate can return, one input each, plus inputs that break
// two invariants at once and so pin the order of the checks: per node, the
// list length first, then per neighbour range, self-loop, duplicate and
// order.
func TestValidateMessages(t *testing.T) {
	nb := func(id int32, d float32) Neighbor { return Neighbor{ID: id, Dist: d} }
	for _, tc := range []struct {
		name  string
		kappa int
		lists [][]Neighbor
		want  string
	}{
		{"valid", 2, [][]Neighbor{{nb(1, 1), nb(2, 2)}, {nb(0, 1)}, {}}, ""},
		{"over kappa", 2, [][]Neighbor{{}, {nb(0, 1), nb(2, 2), nb(3, 3)}, {}, {}}, "node 1 has 3 neighbours, cap 2"},
		{"id out of range", 2, [][]Neighbor{{nb(1, 1)}, {nb(3, 1)}, {}}, "node 1 neighbour 0 id 3 out of range"},
		{"negative id", 2, [][]Neighbor{{nb(1, 1), nb(-1, 2)}, {}}, "node 0 neighbour 1 id -1 out of range"},
		{"self-loop", 2, [][]Neighbor{{nb(1, 1)}, {nb(0, 1), nb(1, 2)}}, "node 1 has a self-loop"},
		{"duplicate", 3, [][]Neighbor{{}, {}, {nb(1, 1), nb(0, 2), nb(1, 3)}}, "node 2 has duplicate neighbour 1"},
		{"unsorted", 2, [][]Neighbor{{nb(2, 5), nb(1, 4)}, {}, {}}, "node 0 list not sorted at 1"},
		// A duplicate of an earlier node's neighbour is no duplicate.
		{"same id on two nodes", 1, [][]Neighbor{{nb(2, 1)}, {nb(2, 1)}, {nb(0, 1)}}, ""},
		// Two faults in one list: the earlier check names it.
		{"over kappa before out of range", 1, [][]Neighbor{{nb(9, 1), nb(8, 2)}}, "node 0 has 2 neighbours, cap 1"},
		{"out of range before self-loop", 3, [][]Neighbor{{nb(0, 1), nb(5, 2)}}, "node 0 has a self-loop"},
		{"self-loop before unsorted", 3, [][]Neighbor{{nb(1, 3), nb(0, 2)}, {}}, "node 0 has a self-loop"},
		{"duplicate before unsorted", 3, [][]Neighbor{{}, {nb(0, 3), nb(0, 2)}}, "node 1 has duplicate neighbour 0"},
		{"first bad node wins", 1, [][]Neighbor{{nb(1, 1)}, {nb(1, 1)}, {nb(7, 1)}}, "node 1 has a self-loop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Graph{Lists: tc.lists, Kappa: tc.kappa}).Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid graph rejected: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}

// encodeGraph writes g to a fresh byte slice.
func encodeGraph(tb testing.TB, g *Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Each error Read returns, with its exact text: header, magic, shape, list
// length, truncated list and structural faults.
func TestReadErrorMessages(t *testing.T) {
	g := &Graph{Lists: [][]Neighbor{{{ID: 1, Dist: 1}, {ID: 2, Dist: 2}}, {{ID: 0, Dist: 1}}, {}}, Kappa: 2}
	valid := encodeGraph(t, g)
	patch := func(off int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "knngraph: reading header: EOF"},
		{"short header", valid[:7], "knngraph: reading header: unexpected EOF"},
		{"bad magic", patch(0, 7), "knngraph: bad magic 0x7"},
		{"kappa zero", patch(8, 0), "knngraph: invalid header n=3 kappa=0"},
		{"no lists", valid[:12], "knngraph: reading list 0: EOF"},
		{"short length word", valid[:14], "knngraph: reading list 0: unexpected EOF"},
		{"short list", valid[:16+8+3], "knngraph: reading list 0: unexpected EOF"},
		{"list over kappa", patch(12, 3), "knngraph: list 0 has 3 entries, cap 2"},
		{"list length past int32", patch(12, 1<<31), "knngraph: list 0 has 2147483648 entries, cap 2"},
		{"missing last list", valid[:len(valid)-4], "knngraph: reading list 2: EOF"},
		{"self-loop", patch(16, 0), "knngraph: corrupt graph: node 0 has a self-loop"},
		{"id out of range", patch(16, 3), "knngraph: corrupt graph: node 0 neighbour 0 id 3 out of range"},
		{"unsorted", patch(20, math.Float32bits(5)), "knngraph: corrupt graph: node 0 list not sorted at 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.in))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Read = %v, want %q", err, tc.want)
			}
		})
	}
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the unpatched graph does not load: %v", err)
	}
}

// Read cuts every list from one array; appending to a list must grow it
// into a fresh array rather than overwrite the list after it.
func TestReadListsDoNotShareCapacity(t *testing.T) {
	g := BruteForce(dataset.GloVeLike(40, 8), 5, 0)
	got, err := Read(bytes.NewReader(encodeGraph(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Lists {
		if cap(got.Lists[i]) != len(got.Lists[i]) {
			t.Fatalf("list %d has capacity %d past its %d entries", i, cap(got.Lists[i]), len(got.Lists[i]))
		}
	}
	next := append([]Neighbor(nil), got.Lists[1]...)
	got.Lists[0] = append(got.Lists[0], Neighbor{ID: 39, Dist: 99})
	for j := range next {
		if got.Lists[1][j] != next[j] {
			t.Fatal("appending to list 0 changed list 1")
		}
	}
}

// A section holding a graph far larger than one read buffer, with lists of
// more neighbours than one chunk decodes, reads back as written.
func TestReadSectionLargeLists(t *testing.T) {
	const kappa = 20000 // a full list is 160 KB: several 64 KiB chunks
	g := &Graph{Lists: make([][]Neighbor, kappa+1), Kappa: kappa}
	for i := 0; i < 3; i++ {
		for id := int32(0); id <= kappa; id++ {
			if int(id) != i {
				g.Lists[i] = append(g.Lists[i], Neighbor{ID: id, Dist: float32(id)})
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteSection(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("tail") // a section never reads past its own bytes
	got, err := ReadSection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != "tail" {
		t.Fatalf("ReadSection left %q, want the 4 bytes after the section", buf.String())
	}
	if !bytes.Equal(encodeGraph(t, got), encodeGraph(t, g)) {
		t.Fatal("large graph changed in the round trip")
	}
}

// A section's length prefix must be the bytes its graph uses. A prefix
// that says more used to load (the reader stops after the n-th list) and
// re-save with the honest prefix; one that says less cuts the graph short.
func TestReadSectionRejectsLyingPrefix(t *testing.T) {
	g, _ := RandomN(dataset.Uniform(9, 4, 1), 3, 1, 1)
	var buf bytes.Buffer
	if _, err := g.WriteSection(&buf); err != nil {
		t.Fatal(err)
	}
	honest := buf.Bytes()
	size := binary.LittleEndian.Uint64(honest)
	for _, lie := range []uint64{size + 1, size + 8, 1 << 30, size - 1} {
		b := bytes.Clone(honest)
		binary.LittleEndian.PutUint64(b, lie)
		b = append(b, make([]byte, 16)...) // bytes a longer section could claim
		if _, err := ReadSection(bytes.NewReader(b)); err == nil {
			t.Fatalf("a section claiming %d bytes for a %d-byte graph was accepted", lie, size)
		}
	}
	if _, err := ReadSection(bytes.NewReader(honest)); err != nil {
		t.Fatal(err)
	}
}

// FuzzGraphRead feeds the .knn decoder arbitrary bytes. Read must never
// panic, and a graph it accepts must be exactly what the input encoded:
// written back, it reproduces the bytes Read consumed — a prefix of the
// input, since Read ignores what follows a complete graph.
//
// CI runs this for a short budget: go test -run=XXX -fuzz=FuzzGraphRead -fuzztime=20s ./internal/knngraph
func FuzzGraphRead(f *testing.F) {
	for seed, shape := range [][2]int{{2, 1}, {9, 3}, {30, 5}} {
		g, _ := RandomN(dataset.Uniform(shape[0], 4, int64(seed)), shape[1], int64(seed), 1)
		b := encodeGraph(f, g)
		f.Add(b)
		for _, cut := range []int{0, 4, 11, 12, 15, 16, 23, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
	}
	f.Add(encodeGraph(f, New(0, 4)))
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		if out := encodeGraph(t, g); !bytes.HasPrefix(in, out) {
			t.Fatalf("accepted input re-encodes to %d bytes that are not its prefix", len(out))
		}
	})
}
