package gkmeans

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gkmeans/internal/dataset"
	"gkmeans/internal/splitmix"
	"gkmeans/internal/vec"
)

// A model-based test of the public mutation API: a splitmix-seeded sequence
// of Append / Delete / Compact / Save→Load steps runs against a real Index
// and against a brute-force oracle (a map from external id to vector plus
// the expected segment list), and after every step the two must agree.
// Only public API is used, so the same file runs unchanged against any
// implementation of the Index — that, not a diff, is the evidence that a
// restructuring kept the behaviour.

// opsShapes are the starting shapes: one segment, three contiguous
// segments, three routed segments — each as float32 and as uint8.
var opsShapes = []struct {
	name string
	opts []Option
	u8   bool
}{
	{"mono/f32", nil, false},
	{"shards3/f32", []Option{WithShards(3)}, false},
	{"routed3/f32", []Option{WithShards(3), WithRouting(4)}, false},
	{"mono/u8", nil, true},
	{"shards3/u8", []Option{WithShards(3)}, true},
	{"routed3/u8", []Option{WithShards(3), WithRouting(4)}, true},
}

// opsTopKs is the topK matrix every probe runs: the two non-positive
// values of the "topK <= 0 is empty" contract, the common small values and
// one past the index size (filled in per call as N+5).
var opsTopKs = []int{-1, 0, 1, 10}

const (
	opsBuildRows = 96
	opsPoolRows  = 64 // vectors available to Append
	opsQueries   = 8
	opsEf        = 48
)

// opsSeg is the oracle's view of one segment.
type opsSeg struct {
	rows, deleted int
	gen           uint64
}

// opsOracle is the model: what the index must contain, by external id.
type opsOracle struct {
	live  map[int32][]float32 // searchable vectors
	home  map[int32]*opsSeg   // every physically present id, live or tombstoned
	segs  []*opsSeg
	bound int32
}

func (o *opsOracle) maxGen() uint64 {
	var g uint64
	for _, s := range o.segs {
		if s.gen > g {
			g = s.gen
		}
	}
	return g
}

func (o *opsOracle) infos() []ShardInfo {
	out := make([]ShardInfo, len(o.segs))
	for i, s := range o.segs {
		out[i] = ShardInfo{Rows: s.rows, Deleted: s.deleted, Live: s.rows - s.deleted, Gen: s.gen}
	}
	return out
}

func (o *opsOracle) rows() (n, deleted int) {
	for _, s := range o.segs {
		n += s.rows
		deleted += s.deleted
	}
	return n, deleted
}

// compact applies Compact(targets...) to the model (all segments when none
// are named) and reports whether the real call must fail instead.
func (o *opsOracle) compact(targets []int) (wantErr bool) {
	in := make([]bool, len(o.segs))
	if len(targets) == 0 {
		for i := range in {
			in[i] = true
		}
	}
	for _, s := range targets {
		in[s] = true
	}
	merged := 0
	for i, s := range o.segs {
		if in[i] {
			merged += s.rows - s.deleted
		}
	}
	// A merged segment too small to carry a graph widens the selection
	// with the smallest untargeted segments.
	for merged > 0 && merged < 2 {
		best := -1
		for i, s := range o.segs {
			if !in[i] && (best < 0 || s.rows < o.segs[best].rows) {
				best = i
			}
		}
		if best < 0 {
			return true
		}
		in[best] = true
		merged += o.segs[best].rows - o.segs[best].deleted
	}
	kept := 0
	for i, s := range o.segs {
		if !in[i] {
			kept += s.rows
		}
	}
	if kept+merged == 0 {
		return true
	}
	fresh := &opsSeg{rows: merged, gen: o.maxGen() + 1}
	gone := map[*opsSeg]bool{}
	var segs []*opsSeg
	placed := false
	for i, s := range o.segs {
		switch {
		case !in[i]:
			segs = append(segs, s)
		default:
			gone[s] = true
			if !placed && merged > 0 {
				segs = append(segs, fresh)
			}
			placed = true
		}
	}
	for id, s := range o.home {
		if !gone[s] {
			continue
		}
		if _, ok := o.live[id]; ok {
			o.home[id] = fresh
		} else {
			delete(o.home, id) // reclaimed: the id is gone for good
		}
	}
	o.segs = segs
	return false
}

// opsRun is one model-based run.
type opsRun struct {
	t       *testing.T
	rng     splitmix.Stream
	u8      bool
	idx     *Index
	model   *opsOracle
	queries *Matrix
	pool    *Matrix // vectors not yet appended
	used    int
}

// learnHomes finds which segment holds each id of a fresh build by
// tombstoning one id at a time on throwaway successors — the partition of
// a routed build is the implementation's choice, the model only has to
// follow it exactly from there on.
func (r *opsRun) learnHomes() {
	for id := int32(0); id < r.model.bound; id++ {
		y, err := r.idx.Delete(id)
		if err != nil {
			r.t.Fatalf("probing id %d: %v", id, err)
		}
		at := -1
		for s, info := range y.ShardInfos() {
			if info.Deleted == 1 && at < 0 {
				at = s
			} else if info.Deleted != 0 {
				r.t.Fatalf("one Delete(%d) tombstoned several rows: %+v", id, y.ShardInfos())
			}
		}
		if at < 0 {
			r.t.Fatalf("Delete(%d) tombstoned nothing", id)
		}
		r.model.home[id] = r.model.segs[at]
	}
}

// answers runs the fixed probe: every query at topK 10.
func (r *opsRun) answers(idx *Index) [][]Neighbor {
	out := make([][]Neighbor, r.queries.N)
	for qi := range out {
		out[qi] = idx.Search(r.queries.Row(qi), 10, opsEf)
	}
	return out
}

// check compares the index with the model: shape accessors, then every
// probe query at every topK, single and batched.
func (r *opsRun) check(where string, idx *Index) {
	t := r.t
	t.Helper()
	n, deleted := r.model.rows()
	if idx.N() != n || idx.Live() != n-deleted || idx.Deleted() != deleted || idx.IDBound() != r.model.bound {
		t.Fatalf("%s: N=%d Live=%d Deleted=%d IDBound=%d, model %d/%d/%d/%d", where,
			idx.N(), idx.Live(), idx.Deleted(), idx.IDBound(), n, n-deleted, deleted, r.model.bound)
	}
	if got, want := idx.ShardInfos(), r.model.infos(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ShardInfos %+v, model %+v", where, got, want)
	}
	if idx.Shards() != len(r.model.segs) {
		t.Fatalf("%s: Shards()=%d, model has %d segments", where, idx.Shards(), len(r.model.segs))
	}
	if len(r.model.live) != n-deleted {
		t.Fatalf("%s: model holds %d live vectors for %d live rows", where, len(r.model.live), n-deleted)
	}
	wantDType := DTypeFloat32
	if r.u8 {
		wantDType = DTypeUint8
	}
	if idx.DType() != wantDType {
		t.Fatalf("%s: dtype %s, want %s", where, idx.DType(), wantDType)
	}
	for _, topK := range append(append([]int(nil), opsTopKs...), n+5) {
		batch := idx.SearchBatch(r.queries, topK, opsEf)
		if len(batch) != r.queries.N {
			t.Fatalf("%s: SearchBatch topK=%d returned %d lists for %d queries", where, topK, len(batch), r.queries.N)
		}
		for qi := 0; qi < r.queries.N; qi++ {
			q := r.queries.Row(qi)
			res := idx.Search(q, topK, opsEf)
			at := fmt.Sprintf("%s: query %d topK=%d", where, qi, topK)
			r.checkResult(at, idx, q, topK, res)
			assertSameNeighbors(t, at+": SearchBatch vs Search", batch[qi], res)
		}
	}
}

// checkResult validates one result list against the model.
func (r *opsRun) checkResult(at string, idx *Index, q []float32, topK int, res []Neighbor) {
	t := r.t
	t.Helper()
	limit := topK
	if limit < 0 {
		limit = 0
	}
	if l := len(r.model.live); limit > l {
		limit = l
	}
	if len(res) > limit {
		t.Fatalf("%s: %d results, at most min(topK, Live)=%d allowed", at, len(res), limit)
	}
	seen := map[int32]bool{}
	for i, nb := range res {
		v, ok := r.model.live[nb.ID]
		if !ok {
			t.Fatalf("%s: result %d is id %d, which is not live in the model", at, i, nb.ID)
		}
		if want := vec.L2Sqr(q, v); nb.Dist != want {
			t.Fatalf("%s: id %d at distance %v, the model's vector is at %v", at, nb.ID, nb.Dist, want)
		}
		if seen[nb.ID] {
			t.Fatalf("%s: id %d returned twice", at, nb.ID)
		}
		seen[nb.ID] = true
		if i == 0 {
			continue
		}
		prev := res[i-1]
		if nb.Dist < prev.Dist {
			t.Fatalf("%s: results not sorted by distance at %d: %+v after %+v", at, i, nb, prev)
		}
		// Merged results break distance ties by id in every implementation
		// this file has run against; TestSearchTiesOrderedByID pins the
		// same order for a single segment's list.
		if idx.Shards() > 1 && nb.Dist == prev.Dist && nb.ID < prev.ID {
			t.Fatalf("%s: merged tie not ordered by id at %d: %+v after %+v", at, i, nb, prev)
		}
	}
}

// mutate applies one mutation to the index, checks that the receiver
// answers exactly as before while it runs and after it (copy-on-write,
// invariant 3), and adopts the successor.
func (r *opsRun) mutate(where string, wantErr bool, apply func() (*Index, error)) bool {
	t := r.t
	t.Helper()
	before := r.answers(r.idx)
	// Readers keep using the receiver while its successor is being made —
	// what a serving layer does, and what -race gets to look at.
	var during [][]Neighbor
	done := make(chan struct{})
	go func() {
		defer close(done)
		during = r.answers(r.idx)
	}()
	next, err := apply()
	<-done
	after := r.answers(r.idx)
	for qi := range before {
		assertSameNeighbors(t, fmt.Sprintf("%s: receiver's query %d before vs during the mutation", where, qi), before[qi], during[qi])
		assertSameNeighbors(t, fmt.Sprintf("%s: receiver's query %d before vs after the mutation", where, qi), before[qi], after[qi])
	}
	if wantErr {
		if err == nil {
			t.Fatalf("%s: succeeded, the model says it must fail", where)
		}
		r.check(where+" (refused, receiver)", r.idx)
		return false
	}
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	r.idx = next
	return true
}

func (r *opsRun) stepAppend(where string) {
	m := 2 + r.rng.Intn(5)
	if r.used+m > r.pool.N {
		return
	}
	fresh := NewMatrix(m, r.pool.Dim)
	copy(fresh.Data, r.pool.Data[r.used*r.pool.Dim:(r.used+m)*r.pool.Dim])
	where = fmt.Sprintf("%s Append(%d rows)", where, m)
	if !r.mutate(where, false, func() (*Index, error) { return r.idx.Append(context.Background(), fresh) }) {
		return
	}
	seg := &opsSeg{rows: m, gen: r.model.maxGen() + 1}
	r.model.segs = append(r.model.segs, seg)
	for i := 0; i < m; i++ {
		id := r.model.bound + int32(i)
		r.model.live[id] = fresh.Row(i)
		r.model.home[id] = seg
	}
	r.model.bound += int32(m)
	r.used += m
}

func (r *opsRun) stepDelete(where string) {
	count := 1 + r.rng.Intn(4)
	ids := make([]int32, count)
	wantErr := false
	for i := range ids {
		// Mostly ids that were assigned at some point (live, tombstoned
		// or reclaimed), now and then one that never was.
		ids[i] = int32(r.rng.Intn(int(r.model.bound) + 2))
		if _, ok := r.model.home[ids[i]]; !ok {
			wantErr = true
		}
	}
	where = fmt.Sprintf("%s Delete(%v)", where, ids)
	if !r.mutate(where, wantErr, func() (*Index, error) { return r.idx.Delete(ids...) }) {
		return
	}
	for _, id := range ids {
		if _, ok := r.model.live[id]; ok {
			delete(r.model.live, id)
			r.model.home[id].deleted++
		}
	}
}

func (r *opsRun) stepCompact(where string) {
	var targets []int
	if r.rng.Intn(2) == 0 { // some: a random non-empty subset
		for s := range r.model.segs {
			if r.rng.Intn(2) == 0 {
				targets = append(targets, s)
			}
		}
		if len(targets) == 0 {
			targets = []int{r.rng.Intn(len(r.model.segs))}
		}
	}
	where = fmt.Sprintf("%s Compact(%v)", where, targets)
	saved := *r.model
	saved.segs = append([]*opsSeg(nil), r.model.segs...)
	saved.home = make(map[int32]*opsSeg, len(r.model.home))
	for id, s := range r.model.home {
		saved.home[id] = s
	}
	wantErr := r.model.compact(targets)
	if !r.mutate(where, wantErr, func() (*Index, error) { return r.idx.Compact(context.Background(), targets...) }) {
		*r.model = saved
	}
}

// stepSaveLoad round-trips the index through its container: the copy must
// answer identically (invariant 5) and write the same bytes again, and the
// run carries on with either one.
func (r *opsRun) stepSaveLoad(where string) {
	t := r.t
	where += " Save→Load"
	var buf bytes.Buffer
	if _, err := r.idx.WriteTo(&buf); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	want, got := r.answers(r.idx), r.answers(loaded)
	for qi := range want {
		assertSameNeighbors(t, fmt.Sprintf("%s: query %d saved vs loaded", where, qi), want[qi], got[qi])
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatalf("%s: re-saving: %v", where, err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("%s: re-saving the loaded copy wrote different bytes", where)
	}
	r.check(where+" (loaded copy)", loaded)
	if r.rng.Intn(2) == 0 {
		r.idx = loaded
	}
}

// runIndexOps builds shape number shape%len(opsShapes) and drives steps
// random operations over it, checking the index against the model after
// each. It returns the final index's serialised bytes.
func runIndexOps(t *testing.T, seed uint64, shape, workers, steps int) []byte {
	t.Helper()
	sh := opsShapes[shape%len(opsShapes)]
	ctx := context.Background()
	all := dataset.SIFTLike(opsBuildRows+opsPoolRows+opsQueries, int64(seed%1000)+1)
	rest, queries := Split(all, opsQueries)
	data := NewMatrix(opsBuildRows, rest.Dim)
	copy(data.Data, rest.Data)
	pool := NewMatrix(rest.N-opsBuildRows, rest.Dim)
	copy(pool.Data, rest.Data[opsBuildRows*rest.Dim:])

	opts := append([]Option{WithKappa(6), WithXi(12), WithTau(2), WithSeed(int64(seed)), WithEntryPoints(4), WithWorkers(workers)}, sh.opts...)
	var idx *Index
	var err error
	if sh.u8 {
		u8, uerr := vec.U8FromMatrix(data)
		if uerr != nil {
			t.Fatal(uerr)
		}
		idx, err = BuildU8(ctx, u8, opts...)
	} else {
		idx, err = Build(ctx, data, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}

	r := &opsRun{t: t, rng: splitmix.New(int64(seed), 0x4f5053 /* "OPS" */), u8: sh.u8, idx: idx, queries: queries, pool: pool}
	r.model = &opsOracle{live: map[int32][]float32{}, home: map[int32]*opsSeg{}, bound: int32(data.N)}
	for _, info := range idx.ShardInfos() {
		if info.Deleted != 0 || info.Gen != 0 {
			t.Fatalf("fresh build reports %+v", info)
		}
		r.model.segs = append(r.model.segs, &opsSeg{rows: info.Rows})
	}
	for id := 0; id < data.N; id++ {
		r.model.live[int32(id)] = data.Row(id)
	}
	r.learnHomes()
	r.check(sh.name+" build", r.idx)

	for step := 0; step < steps; step++ {
		where := fmt.Sprintf("%s seed %d step %d:", sh.name, seed, step)
		switch op := r.rng.Intn(10); {
		case op < 3:
			r.stepAppend(where)
		case op < 7:
			r.stepDelete(where)
		case op < 9:
			r.stepCompact(where)
		default:
			r.stepSaveLoad(where)
		}
		r.check(where, r.idx)
	}
	var buf bytes.Buffer
	if _, err := r.idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexOps runs the model over every starting shape at one and at
// three workers; the two runs must also end in byte-identical indexes
// (invariant 1 along the whole mutation chain).
func TestIndexOps(t *testing.T) {
	for shape, sh := range opsShapes {
		shape := shape
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 2, 3} {
				one := runIndexOps(t, seed, shape, 1, 14)
				three := runIndexOps(t, seed, shape, 3, 14)
				if !bytes.Equal(one, three) {
					t.Fatalf("seed %d: final index differs between 1 and 3 workers", seed)
				}
			}
		})
	}
}

// FuzzIndexOps lets the fuzzer pick the seed and the starting shape.
//
// CI runs it for a short budget: go test -run=XXX -fuzz=FuzzIndexOps -fuzztime=20s .
func FuzzIndexOps(f *testing.F) {
	for shape := range opsShapes {
		f.Add(uint64(shape)+11, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		runIndexOps(t, seed, int(shape), 1+2*int(seed&1), 6+int(seed>>1)%8)
	})
}

// opsStates builds the four states of the topK contract for one dtype:
// one segment and three, each with and without tombstones.
func opsStates(t *testing.T, u8 bool) map[string]*Index {
	t.Helper()
	data := dataset.SIFTLike(120, 77)
	build := func(opts ...Option) *Index {
		opts = append([]Option{WithKappa(6), WithXi(12), WithTau(2), WithSeed(77)}, opts...)
		if u8 {
			opts = append(opts, WithDType(DTypeUint8))
		}
		idx, err := Build(context.Background(), data, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	states := map[string]*Index{"one segment": build(), "three segments": build(WithShards(3))}
	for _, name := range []string{"one segment", "three segments"} {
		dead, err := states[name].Delete(3, 50, 110)
		if err != nil {
			t.Fatal(err)
		}
		states[name+" + tombstones"] = dead
	}
	return states
}

// topK <= 0 asks for nothing and gets nothing, in every shape and dtype,
// from Search and from SearchBatch alike.
func TestSearchNonPositiveTopK(t *testing.T) {
	queries := dataset.SIFTLike(4, 78)
	for _, u8 := range []bool{false, true} {
		for name, idx := range opsStates(t, u8) {
			for _, topK := range []int{0, -1} {
				for _, ef := range []int{0, 32} {
					if res := idx.Search(queries.Row(0), topK, ef); len(res) != 0 {
						t.Errorf("%s (%s): Search(q, %d, %d) returned %d results, want none", name, idx.DType(), topK, ef, len(res))
					}
					batch := idx.SearchBatch(queries, topK, ef)
					if len(batch) != queries.N {
						t.Fatalf("%s (%s): SearchBatch topK=%d returned %d lists for %d queries", name, idx.DType(), topK, len(batch), queries.N)
					}
					for qi, res := range batch {
						if len(res) != 0 {
							t.Errorf("%s (%s): SearchBatch topK=%d query %d returned %d results, want none", name, idx.DType(), topK, qi, len(res))
						}
					}
				}
			}
			if st := idx.SearchStats(); st.Queries != 0 {
				t.Errorf("%s (%s): empty requests counted as %d queries", name, idx.DType(), st.Queries)
			}
		}
	}
}

// Shape follows state, not history: compacting a delete-free one-segment
// index leaves one segment holding ids 0..N-1, which is a monolithic index
// again — with the graph a fresh Build makes, and able to cluster.
func TestCompactRestoresMonolithicShape(t *testing.T) {
	ctx := context.Background()
	data := dataset.GloVeLike(150, 81)
	opts := []Option{WithKappa(6), WithXi(12), WithTau(3), WithSeed(81), WithMaxIter(5)}
	base, err := Build(ctx, data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := base.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Sharded() || compacted.Shards() != 1 || compacted.Graph() == nil {
		t.Fatalf("compacted delete-free index: Sharded=%v Shards=%d Graph=%v, want a monolithic index",
			compacted.Sharded(), compacted.Shards(), compacted.Graph())
	}
	want, got := base.Graph(), compacted.Graph()
	for v := range want.Lists {
		if !reflect.DeepEqual(want.Lists[v], got.Lists[v]) {
			t.Fatalf("node %d: rebuilt graph differs from the Build-time one", v)
		}
	}
	res, err := compacted.Cluster(ctx, 6)
	if err != nil {
		t.Fatalf("Cluster after Compact: %v", err)
	}
	if err := res.Validate(data); err != nil {
		t.Fatal(err)
	}

	// Append + Compact(all) ends in ids 0..N-1 too.
	extra := dataset.GloVeLike(10, 82)
	grown, err := base.Append(ctx, extra)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Sharded() || grown.Graph() != nil {
		t.Fatal("a two-segment index reports a global graph")
	}
	folded, err := grown.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Sharded() || folded.Graph() == nil || folded.Graph().N() != data.N+extra.N {
		t.Fatalf("folded index: Sharded=%v Graph=%v", folded.Sharded(), folded.Graph())
	}
	if _, err := folded.Cluster(ctx, 6); err != nil {
		t.Fatalf("Cluster after Append+Compact: %v", err)
	}

	// The refusals name what is actually in the way.
	for _, c := range []struct {
		name string
		idx  func() (*Index, error)
		want string
	}{
		{"segments", func() (*Index, error) { return grown, nil }, "2 segments"},
		{"tombstones", func() (*Index, error) { return base.Delete(4, 9) }, "2 deleted rows"},
		{"id map", func() (*Index, error) {
			holed, err := base.Delete(4)
			if err != nil {
				return nil, err
			}
			return holed.Compact(ctx)
		}, "id map"},
		{"uint8", func() (*Index, error) {
			return Build(ctx, dataset.SIFTLike(60, 83), WithKappa(4), WithTau(2), WithDType(DTypeUint8))
		}, "uint8"},
	} {
		idx, err := c.idx()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := idx.Cluster(ctx, 3); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Cluster error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// ShardsProbed counts segment searches on every index, so on a one-segment
// index it equals Queries; both come from counters every copy-on-write
// successor shares.
func TestSearchStatsCountSegmentSearches(t *testing.T) {
	states := opsStates(t, false)
	q := dataset.SIFTLike(1, 79).Row(0)
	one, three := states["one segment"], states["three segments"]
	for i := 0; i < 5; i++ {
		one.Search(q, 3, 16)
		three.Search(q, 3, 16)
	}
	if st := one.SearchStats(); st.Queries != 5 || st.ShardsProbed != 5 || st.RoutedQueries != 0 {
		t.Fatalf("one segment after 5 queries: %+v", st)
	}
	if st := three.SearchStats(); st.Queries != 5 || st.ShardsProbed != 15 {
		t.Fatalf("three segments after 5 queries: %+v", st)
	}
	// The tombstoned successors share their predecessors' counters.
	states["one segment + tombstones"].Search(q, 3, 16)
	if st := one.SearchStats(); st.Queries != 6 || st.ShardsProbed != 6 {
		t.Fatalf("successor's query not visible on the predecessor: %+v", st)
	}
}

// No counter of SearchStats falls along a mutation chain with no search in
// flight: the segments Compact drops take their searchers' work totals out
// of the index, and the shared counters keep them.
func TestSearchStatsNeverFallAcrossMutations(t *testing.T) {
	ctx := context.Background()
	idx, queries := buildTestIndex(t, WithShards(2))
	extra := dataset.SIFTLike(8, 91)
	steps := []struct {
		name string
		op   func(*Index) (*Index, error)
	}{
		{"Append", func(x *Index) (*Index, error) { return x.Append(ctx, extra) }},
		{"Delete", func(x *Index) (*Index, error) { return x.Delete(1, 2, 3, 700, 1001) }},
		{"Compact(0)", func(x *Index) (*Index, error) { return x.Compact(ctx, 0) }},
		{"Compact()", func(x *Index) (*Index, error) { return x.Compact(ctx) }},
	}
	atLeast := func(a, b SearchStats) bool {
		return a.Queries >= b.Queries && a.DistanceComps >= b.DistanceComps &&
			a.ExpandedCandidates >= b.ExpandedCandidates && a.ShardsProbed >= b.ShardsProbed &&
			a.RoutedQueries >= b.RoutedQueries
	}
	for _, step := range steps {
		for qi := 0; qi < queries.N; qi++ {
			idx.Search(queries.Row(qi), 10, 64)
		}
		before := idx.SearchStats()
		if before.DistanceComps == 0 || before.ExpandedCandidates == 0 {
			t.Fatalf("before %s: searches counted no work: %+v", step.name, before)
		}
		next, err := step.op(idx)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if after := next.SearchStats(); !atLeast(after, before) {
			t.Fatalf("%s lowered SearchStats:\nbefore %+v\nafter  %+v", step.name, before, after)
		}
		idx = next
	}
}
