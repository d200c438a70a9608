package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gkmeans"
)

// ErrDraining is returned for work submitted after shutdown has begun.
var ErrDraining = errors.New("server: draining, not accepting new work")

// coalescer batches concurrent single-query searches against one index
// without ever holding a lone one. The collection window is paid only while
// it demonstrably gathers company. Per (topK, ef, nprobe) key:
//
//   - A query that finds nothing of its key executing, collecting or
//     expected starts at once, alone: one client, however fast, never waits
//     and an idle server adds no latency.
//   - A query that arrives while a search of its key is executing opens a
//     group. The group collects for the window, or until it holds maxBatch
//     queries, and then runs as one Index.SearchBatch call fanning its
//     queries across the worker pool.
//   - When a batch of two or more returns, its callers are expected back:
//     the key keeps an empty group open for one more window, and whoever
//     returns first collects for the others instead of starting alone. A
//     window without an arrival closes the group and the key is idle again.
//
// Under sustained concurrency searches therefore flush once a window as one
// batch, paced by the timer rather than by how fast the CPU happens to be.
//
// Results are identical to calling Index.SearchNProbe directly: batches are
// grouped by exact (topK, ef, nprobe), and SearchBatchNProbe resolves those
// parameters the same way SearchNProbe does.
//
// The coalescer holds a provider function, not an index value: the serving
// layer swaps in new index epochs (inserts, deletes, compaction) while
// queries collect, and a batch resolves the index at execution time so it
// always runs against the newest epoch.
type coalescer struct {
	get      func() *gkmeans.Index
	window   time.Duration
	maxBatch int

	mu     sync.Mutex
	closed bool
	keys   map[searchKey]*keyState // keys with a search executing or a group open

	queries   atomic.Int64 // single queries accepted
	batches   atomic.Int64 // searches executed (SearchBatch calls and solo searches)
	maxFlush  atomic.Int64 // largest batch executed
	queued    atomic.Int64 // queries that waited in a group
	queueWait atomic.Int64 // total ns those queries waited for their batch to start
}

// searchKey groups queries that can share one SearchBatch call.
type searchKey struct{ topK, ef, nprobe int }

// keyState is the per-key state machine: how many searches of the key are
// executing, and the open group (nil when none) — collecting when it holds
// queries, expecting a returned batch's callers while it is still empty.
type keyState struct {
	running int
	open    *batchGroup
}

// batchGroup is one batch: the collected queries, one result channel per
// caller, and each caller's context so a query whose deadline already
// expired can be dropped at execution time. An open group also carries each
// query's arrival time and its timer: the window, counted from the first
// query, or from the group's opening while it is empty.
type batchGroup struct {
	key     searchKey
	queries [][]float32
	ctxs    []context.Context
	out     []chan []gkmeans.Neighbor
	arrived []time.Time
	timer   *time.Timer
}

// newCoalescer wires a coalescer to an index provider. window <= 0
// disables batching (every query runs alone); maxBatch <= 1 likewise.
func newCoalescer(get func() *gkmeans.Index, window time.Duration, maxBatch int) *coalescer {
	return &coalescer{
		get:      get,
		window:   window,
		maxBatch: maxBatch,
		keys:     make(map[searchKey]*keyState),
	}
}

// Search answers one query through the batcher. It blocks until the query
// has executed or ctx is done; a query whose caller gives up after its batch
// started still executes with it (the result is simply dropped).
func (c *coalescer) Search(ctx context.Context, q []float32, topK, ef, nprobe int) ([]gkmeans.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.window <= 0 || c.maxBatch <= 1 {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil, ErrDraining
		}
		c.queries.Add(1)
		c.batches.Add(1)
		c.bumpMaxFlush(1)
		return c.get().SearchNProbe(q, topK, ef, nprobe), nil
	}

	key := searchKey{topK: topK, ef: ef, nprobe: nprobe}
	ch := make(chan []gkmeans.Neighbor, 1) // buffered: delivery never blocks on a gone caller

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrDraining
	}
	c.queries.Add(1)
	st := c.keys[key]
	if st == nil {
		st = &keyState{}
		c.keys[key] = st
	}
	g := st.open
	lone := st.running == 0 && g == nil
	switch {
	case lone:
		g = &batchGroup{key: key}
		st.running++
	case g == nil:
		g = c.openLocked(st, key)
	case len(g.queries) == 0:
		g.timer.Reset(c.window) // the first one back: its window starts now
	}
	g.queries = append(g.queries, q)
	g.ctxs = append(g.ctxs, ctx)
	g.out = append(g.out, ch)
	if !lone {
		g.arrived = append(g.arrived, time.Now())
	}
	full := !lone && len(g.queries) >= c.maxBatch
	if full {
		c.claimLocked(st)
	}
	c.mu.Unlock()

	switch {
	case lone:
		// Off the caller's goroutine, so the caller is released the instant
		// its context ends even while its own search executes. A new
		// goroutine jumps the run queue; yielding first gives the handlers
		// that were already runnable their turn, so under a backlog they
		// find this search executing and collect instead of each running
		// alone, back to back. With nothing else runnable it costs one
		// reschedule.
		go func() { runtime.Gosched(); c.run(g) }()
	case full:
		// The filling goroutine runs the batch itself: natural backpressure,
		// and no handoff latency for the batch-mates waiting on channels.
		c.run(g)
	}

	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// openLocked opens an empty group on st and arms its timer. The caller
// holds c.mu.
func (c *coalescer) openLocked(st *keyState, key searchKey) *batchGroup {
	g := &batchGroup{key: key}
	g.timer = time.AfterFunc(c.window, func() { c.windowEnded(g) })
	st.open = g
	return g
}

// claimLocked moves st's open group to executing and disarms its timer. The
// caller holds c.mu and owns the group exclusively afterwards.
func (c *coalescer) claimLocked(st *keyState) *batchGroup {
	g := st.open
	g.timer.Stop()
	st.open = nil
	st.running++
	return g
}

// windowEnded is the timer path: the group's window is over, so it runs
// with whoever it collected — unless the size trigger or Close claimed it
// first. Nobody came back to an empty one: the key is idle again.
func (c *coalescer) windowEnded(g *batchGroup) {
	c.mu.Lock()
	st := c.keys[g.key]
	if st == nil || st.open != g {
		c.mu.Unlock()
		return
	}
	if len(g.queries) == 0 {
		if st.open = nil; st.running == 0 {
			delete(c.keys, g.key)
		}
		c.mu.Unlock()
		return
	}
	c.claimLocked(st)
	c.mu.Unlock()
	c.run(g)
}

// run executes one claimed group and delivers each caller its result list.
// Queries whose caller's context is already done — deadline expired or
// connection gone while the group collected — are dropped before the
// search: one timed-out request must not cost its batch-mates any work, let
// alone poison their results. Per-query results are independent (SearchBatch
// is query-parallel, not query-coupled), so the survivors' neighbours are
// bit-identical with or without the dropped rows.
func (c *coalescer) run(g *batchGroup) {
	c.queued.Add(int64(len(g.arrived)))
	for _, t := range g.arrived {
		c.queueWait.Add(int64(time.Since(t)))
	}
	live := g.queries[:0]
	out := g.out[:0]
	for i, ctx := range g.ctxs {
		if ctx.Err() != nil {
			continue // caller is gone; its buffered channel just gets no send
		}
		live = append(live, g.queries[i])
		out = append(out, g.out[i])
	}
	if len(live) > 0 { // else every caller timed out while the group collected
		c.batches.Add(1)
		c.bumpMaxFlush(int64(len(live)))
		idx, k := c.get(), g.key
		if len(live) == 1 {
			out[0] <- idx.SearchNProbe(live[0], k.topK, k.ef, k.nprobe)
		} else {
			for i, res := range idx.SearchBatchNProbe(gkmeans.FromRows(live), k.topK, k.ef, k.nprobe) {
				out[i] <- res
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.keys[g.key]
	st.running--
	if len(g.arrived) >= 2 && st.open == nil && !c.closed {
		c.openLocked(st, g.key) // the wait found company: expect it back
	}
	if st.running == 0 && st.open == nil {
		delete(c.keys, g.key)
	}
}

func (c *coalescer) bumpMaxFlush(n int64) {
	for {
		cur := c.maxFlush.Load()
		if n <= cur || c.maxFlush.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Close stops accepting new queries and synchronously executes every open
// group, so callers already waiting get their results — the drain step of
// graceful shutdown. Searches already executing finish on their own
// goroutines.
func (c *coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var pending []*batchGroup
	for _, st := range c.keys {
		if st.open != nil {
			pending = append(pending, c.claimLocked(st))
		}
	}
	c.mu.Unlock()
	for _, g := range pending {
		c.run(g)
	}
}

// Stats returns the counters: total queries accepted, searches executed and
// the largest batch.
func (c *coalescer) Stats() (queries, batches, maxBatch int64) {
	return c.queries.Load(), c.batches.Load(), c.maxFlush.Load()
}
