package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/internal/dataset"
)

// testIndex builds one small deterministic index per test binary run.
var (
	testIdxOnce sync.Once
	testIdx     *gkmeans.Index
	testQueries *gkmeans.Matrix
)

func sharedIndex(t testing.TB) (*gkmeans.Index, *gkmeans.Matrix) {
	t.Helper()
	testIdxOnce.Do(func() {
		all := dataset.SIFTLike(540, 7)
		data, queries := dataset.Split(all, 40)
		idx, err := gkmeans.Build(context.Background(), data,
			gkmeans.WithKappa(10), gkmeans.WithXi(25), gkmeans.WithTau(4), gkmeans.WithSeed(3))
		if err != nil {
			panic(err)
		}
		testIdx, testQueries = idx, queries
	})
	return testIdx, testQueries
}

func neighborsEqual(a, b []gkmeans.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gate is an index provider that holds every search at the moment it
// resolves the index, until open is called: tests create "a search in
// flight" with it the way production does, by one actually being in flight.
type gate struct {
	idx     *gkmeans.Index
	entered chan struct{} // one send per held search
	release chan struct{}
}

func newGate(idx *gkmeans.Index) *gate {
	// entered is sized above the number of searches any test holds at once,
	// so a held search never blocks on reporting itself.
	return &gate{idx: idx, entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gate) get() *gkmeans.Index {
	g.entered <- struct{}{}
	<-g.release
	return g.idx
}

func (g *gate) open() { close(g.release) }

// awaitHeld blocks until one more search is held at the gate.
func (g *gate) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no search reached the index provider")
	}
}

// awaitQueries blocks until c has accepted n queries: each is then either
// executing or queued, so a test can act on "all of them are waiting".
func awaitQueries(t *testing.T, c *coalescer, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if q, _, _ := c.Stats(); q >= n {
			return
		}
		if time.Now().After(deadline) {
			q, _, _ := c.Stats()
			t.Fatalf("coalescer accepted %d queries, waiting for %d", q, n)
		}
	}
}

// searchAll starts one Search per query row in rows on its own goroutine and
// returns a function that waits for all of them and reports any error or any
// answer that differs from a direct Index.SearchNProbe.
func searchAll(t *testing.T, c *coalescer, idx *gkmeans.Index, queries *gkmeans.Matrix, rows []int, topK, ef int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, r := range rows {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got, err := c.Search(context.Background(), queries.Row(r), topK, ef, 0)
			if err != nil {
				t.Errorf("row %d: %v", r, err)
			} else if !neighborsEqual(got, idx.SearchNProbe(queries.Row(r), topK, ef, 0)) {
				t.Errorf("row %d: coalesced result differs from direct search", r)
			}
		}(r)
	}
	return func() {
		t.Helper()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("searches never returned")
		}
	}
}

// Queries answered through the coalescer must be bit-identical to direct
// Index.Search calls, and hammering it from many goroutines must batch them.
func TestCoalescerMatchesDirectSearchUnderLoad(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx }, 50*time.Millisecond, 8)
	defer c.Close()

	const goroutines, perG = 32, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := queries.Row((g*perG + i) % queries.N)
				got, err := c.Search(context.Background(), q, 10, 64, 0)
				if err != nil {
					errs <- err
					return
				}
				if want := idx.Search(q, 10, 64); !neighborsEqual(got, want) {
					errs <- fmt.Errorf("g%d i%d: coalesced result differs from direct Index.Search", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	nq, nb, maxB := c.Stats()
	if nq != goroutines*perG {
		t.Fatalf("coalescer accepted %d queries, want %d (dropped requests)", nq, goroutines*perG)
	}
	if nb >= nq {
		t.Fatalf("%d batches for %d queries: coalescer never batched", nb, nq)
	}
	if maxB < 2 || maxB > 8 {
		t.Fatalf("max batch %d outside (1, maxBatch]", maxB)
	}
}

// A lone request is never held: with nothing of its key executing,
// collecting or expected it runs at once, however long the window.
func TestCoalescerLoneSearchStartsAtOnce(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx }, time.Hour, 8)
	defer c.Close()

	searchAll(t, c, idx, queries, []int{0}, 5, 32)()
	if nq, nb, maxB := c.Stats(); nq != 1 || nb != 1 || maxB != 1 {
		t.Fatalf("stats %d/%d/%d, want 1/1/1", nq, nb, maxB)
	}
	if n := c.queued.Load(); n != 0 {
		t.Fatalf("%d queries counted as queued, want 0: the lone path never queues", n)
	}
}

// Callers that arrive while a search is executing collect in one group. The
// search's return does not start them — only the window's end, the size
// trigger or Close does — and they run as exactly one batch; their time in
// the group is what the queue-wait counters report.
func TestCoalescerCollectsBehindRunningSearch(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, time.Hour, 64)
	defer c.Close()

	waitFirst := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	waitRest := searchAll(t, c, idx, queries, []int{1, 2, 3, 4, 5}, 5, 32)
	awaitQueries(t, c, 6)
	g.open()
	waitFirst()
	if _, nb, _ := c.Stats(); nb != 1 {
		t.Fatalf("%d searches started by the first one's return, want the group still collecting", nb)
	}
	c.Close() // ends the hour-long window
	waitRest()

	if _, nb, maxB := c.Stats(); nb != 2 || maxB != 5 {
		t.Fatalf("5 collected callers ran as %d searches (largest %d), want the first plus one batch of 5", nb, maxB)
	}
	if n, wait := c.queued.Load(), c.queueWait.Load(); n != 5 || wait <= 0 {
		t.Fatalf("queue wait counted %d queries over %dns, want 5 over a positive time", n, wait)
	}
}

// After a batch of two or more returns its callers are expected back: the
// next arrival collects for the others instead of starting alone, although
// nothing of its key is executing.
func TestCoalescerExpectsBatchBack(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, time.Hour, 2)
	defer c.Close()

	waitFirst := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	waitPair := searchAll(t, c, idx, queries, []int{1, 2}, 5, 32)
	g.awaitHeld(t) // the pair filled its group and started beside the held search
	g.open()
	waitFirst()
	waitPair()

	waitBack := searchAll(t, c, idx, queries, []int{3}, 5, 32)
	awaitQueries(t, c, 4)
	time.Sleep(5 * time.Millisecond) // long enough for a solo search, had one started
	if _, nb, _ := c.Stats(); nb != 2 {
		t.Fatalf("%d searches executed, want 2: the first one back must collect, not start alone", nb)
	}
	waitOther := searchAll(t, c, idx, queries, []int{4}, 5, 32) // fills the group
	waitBack()
	waitOther()
	if _, nb, maxB := c.Stats(); nb != 3 || maxB != 2 {
		t.Fatalf("%d searches (largest %d), want 3 (the first and two pairs)", nb, maxB)
	}
}

// A window in which nobody comes back closes the expectation: the key is
// idle again and the next search starts at once, alone.
func TestCoalescerExpectationExpires(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, 2*time.Millisecond, 2)
	defer c.Close()

	waitFirst := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	waitPair := searchAll(t, c, idx, queries, []int{1, 2}, 5, 32)
	g.awaitHeld(t)
	g.open()
	waitFirst()
	waitPair()

	idle := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.keys) == 0
	}
	for deadline := time.Now().Add(10 * time.Second); !idle(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the key never went idle after its batch returned")
		}
	}
	searchAll(t, c, idx, queries, []int{3}, 5, 32)()
	if n := c.queued.Load(); n != 2 {
		t.Fatalf("%d queries counted as queued, want only the pair: the search after the idle window is lone", n)
	}
}

// Reaching maxBatch must start the collecting group immediately — on the
// filling goroutine, without waiting for the running search or the window.
func TestCoalescerSizeTrigger(t *testing.T) {
	idx, queries := sharedIndex(t)
	// A window far longer than the test timeout and a first search that never
	// returns before the assertion: only the size trigger can start the
	// collecting group, so its reaching the gate proves the trigger works.
	g := newGate(idx)
	c := newCoalescer(g.get, time.Hour, 4)
	defer c.Close()

	waitFirst := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	waitRest := searchAll(t, c, idx, queries, []int{1, 2, 3, 4}, 5, 32)
	g.awaitHeld(t) // the full group started beside the held search
	g.open()
	waitFirst()
	waitRest()

	if _, nb, maxB := c.Stats(); nb != 2 || maxB != 4 {
		t.Fatalf("4 queued queries at maxBatch=4 ran as %d searches (largest %d), want the first plus 1 batch of 4", nb, maxB)
	}
}

// The window bounds the wait: once it has passed since the group's first
// query the group starts, beside a still-running search if need be — once.
func TestCoalescerWindowStartsGroup(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, 5*time.Millisecond, 64)
	defer c.Close()

	waitFirst := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	// One collecting caller, so the group is complete whenever its timer fires.
	waitRest := searchAll(t, c, idx, queries, []int{1}, 5, 32)
	g.awaitHeld(t) // the group started while the first search is still held
	g.open()
	waitFirst()
	waitRest()

	// Every caller was answered (above) and nothing ran twice.
	if _, nb, _ := c.Stats(); nb != 2 {
		t.Fatalf("%d searches executed, want 2 (the held one and the group)", nb)
	}
}

// Different (topK, ef) parameters must not share a batch — mixing them
// would change results.
func TestCoalescerGroupsByParams(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx }, 20*time.Millisecond, 64)
	defer c.Close()

	var wg sync.WaitGroup
	run := func(topK, ef int) {
		defer wg.Done()
		q := queries.Row(0)
		got, err := c.Search(context.Background(), q, topK, ef, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if want := idx.Search(q, topK, ef); !neighborsEqual(got, want) {
			t.Errorf("topK=%d ef=%d: coalesced result differs", topK, ef)
		}
	}
	wg.Add(3)
	go run(5, 32)
	go run(10, 64)
	go run(10, 0)
	wg.Wait()

	if _, nb, _ := c.Stats(); nb != 3 {
		t.Fatalf("3 distinct parameter sets ran as %d batches, want 3", nb)
	}
}

// A caller whose context dies is released at that instant, whether its
// query is collecting or already executing; the searches still run for their
// surviving members.
func TestCoalescerContextCancellation(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, time.Hour, 3) // the group starts only when a third query fills it
	defer c.Close()

	searchErr := func(ctx context.Context, row int) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Search(ctx, queries.Row(row), 5, 32, 0)
			done <- err
		}()
		return done
	}
	expectCanceled := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("%s caller: got %v, want context.Canceled", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cancelled %s caller never returned", what)
		}
	}

	execCtx, cancelExec := context.WithCancel(context.Background())
	executing := searchErr(execCtx, 0)
	g.awaitHeld(t)
	ctx, cancel := context.WithCancel(context.Background())
	queued := searchErr(ctx, 1)
	waitSurvivor := searchAll(t, c, idx, queries, []int{2}, 5, 32)
	awaitQueries(t, c, 3)

	cancel()
	expectCanceled("queued", queued)
	cancelExec()
	expectCanceled("executing", executing)

	g.open()
	waitThird := searchAll(t, c, idx, queries, []int{3}, 5, 32) // fills the group
	waitSurvivor()                                              // the cancelled batch-mate cost it nothing
	waitThird()
	if _, _, maxB := c.Stats(); maxB != 2 {
		t.Fatalf("largest batch %d, want 2: the cancelled query is dropped when its group starts", maxB)
	}

	// Pre-cancelled contexts never enqueue at all.
	if _, err := c.Search(ctx, queries.Row(0), 5, 32, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled search: got %v, want context.Canceled", err)
	}
}

// Keys never share a batch and never wait for each other: a query whose key
// is idle starts at once beside a held search of another key, and each key
// fills its own group.
func TestCoalescerKeysIndependent(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, time.Hour, 2)
	defer c.Close()

	waitA := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	waitB := searchAll(t, c, idx, queries, []int{0}, 10, 64)
	g.awaitHeld(t) // B did not collect behind A
	waitMoreA := searchAll(t, c, idx, queries, []int{1, 2}, 5, 32)
	waitMoreB := searchAll(t, c, idx, queries, []int{1, 2}, 10, 64)
	g.awaitHeld(t) // one pair filled its group,
	g.awaitHeld(t) // and so did the other: four queries, two keys, no batch of 4
	g.open()
	waitA()
	waitB()
	waitMoreA()
	waitMoreB()

	if _, nb, maxB := c.Stats(); nb != 4 || maxB != 2 {
		t.Fatalf("two keys ran as %d searches (largest %d), want 4 (a first and a pair per key)", nb, maxB)
	}
}

// Close drains: callers already waiting get results, later callers get
// ErrDraining.
func TestCoalescerCloseDrains(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx }, time.Hour, 1000)

	done := make(chan error, 1)
	go func() {
		res, err := c.Search(context.Background(), queries.Row(0), 5, 32, 0)
		if err == nil && len(res) != 5 {
			err = fmt.Errorf("drained search returned %d results, want 5", len(res))
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the query enqueue
	c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiting caller not drained: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not flush the open batch")
	}

	if _, err := c.Search(context.Background(), queries.Row(0), 5, 32, 0); err != ErrDraining {
		t.Fatalf("search after Close: got %v, want ErrDraining", err)
	}
	c.Close() // idempotent
}

// Close while one search executes and a group is collecting answers both,
// and refuses whoever comes later.
func TestCoalescerCloseWithExecutingAndQueued(t *testing.T) {
	idx, queries := sharedIndex(t)
	g := newGate(idx)
	c := newCoalescer(g.get, time.Hour, 64)

	waitFirst := searchAll(t, c, idx, queries, []int{0}, 5, 32)
	g.awaitHeld(t)
	waitRest := searchAll(t, c, idx, queries, []int{1, 2}, 5, 32)
	awaitQueries(t, c, 3)

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	g.awaitHeld(t) // Close started the collecting group itself
	if _, err := c.Search(context.Background(), queries.Row(3), 5, 32, 0); err != ErrDraining {
		t.Fatalf("search during Close: got %v, want ErrDraining", err)
	}
	g.open()
	waitFirst()
	waitRest()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if nq, nb, _ := c.Stats(); nq != 3 || nb != 2 {
		t.Fatalf("stats %d queries / %d searches, want 3 / 2", nq, nb)
	}
}

// window <= 0 disables batching but keeps the same results and counters.
func TestCoalescerDisabled(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx }, 0, 32)
	q := queries.Row(1)
	got, err := c.Search(context.Background(), q, 7, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := idx.Search(q, 7, 40); !neighborsEqual(got, want) {
		t.Fatal("unbatched coalescer result differs from direct search")
	}
	nq, nb, maxB := c.Stats()
	if nq != 1 || nb != 1 || maxB != 1 {
		t.Fatalf("stats %d/%d/%d, want 1/1/1", nq, nb, maxB)
	}
	c.Close()
	if _, err := c.Search(context.Background(), q, 7, 40, 0); err != ErrDraining {
		t.Fatalf("disabled coalescer after Close: got %v, want ErrDraining", err)
	}
}
