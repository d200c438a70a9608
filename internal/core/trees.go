package core

import (
	"sync"

	"gkmeans/internal/twomeans"
	"gkmeans/internal/vec"
)

// roundTrees grows the 2M trees of one intertwined build (Alg. 3 line 7)
// ahead of its round loop. A round's tree depends only on the data and the
// round's seed, never on the graph, so round t+1's tree need not wait for
// round t. The build owns exactly `workers` lanes and never has more than
// that many goroutines doing work:
//
//   - a tree takes a free lane, in round order, and gives it back when done;
//   - the round loop holds one lane through its epoch and refinement and
//     gives it up only while it waits for its own tree, whose lane it then
//     inherits;
//   - wide work (the random initial graph, refinement) runs on the round
//     loop's lane plus whatever lanes are free when it starts.
//
// With one lane nothing runs ahead: the round loop grows each tree itself,
// in serial order, without starting a goroutine. Every in-flight tree holds
// its own twomeans scratch — a gathered copy of the rows (n·d·4 B) plus
// ≈50 B of per-row state on 64-bit — so a build holds up to
// min(workers, τ) of them.
type roundTrees struct {
	data   *vec.Matrix
	k      int
	rounds []roundTree
	wg     sync.WaitGroup

	mu      sync.Mutex
	free    int  // lanes nobody holds
	next    int  // first round whose tree has not started
	waiting int  // round whose tree the round loop waits for, lane given up; -1 when none
	stopped bool // start no further tree
	busy    int  // lanes doing work now: trees, epochs and wide work, counted where they run
	peak    int  // most lanes busy at once; tests hold it to workers
}

type roundTree struct {
	seed   int64
	labels []int
	err    error
	done   chan struct{} // closed once labels and err are set by a goroutine
}

// newRoundTrees starts growing the first trees on all lanes but the round
// loop's.
func newRoundTrees(data *vec.Matrix, k int, seeds []int64, workers int) *roundTrees {
	r := &roundTrees{data: data, k: k, rounds: make([]roundTree, len(seeds)), free: workers - 1, waiting: -1}
	for t, seed := range seeds {
		r.rounds[t] = roundTree{seed: seed, done: make(chan struct{})}
	}
	r.mu.Lock()
	for r.free > 0 && r.next < len(r.rounds) {
		r.free--
		r.startLocked()
	}
	r.mu.Unlock()
	return r
}

// wait returns round t's labels, growing the tree on the round loop's own
// lane when no lane has started it.
func (r *roundTrees) wait(t int) ([]int, error) {
	rt := &r.rounds[t]
	r.mu.Lock()
	if r.next == t {
		r.next++
		r.mu.Unlock()
		r.grow(rt)
		return rt.labels, rt.err
	}
	select {
	case <-rt.done:
	default:
		r.waiting = t
		r.releaseLocked()
	}
	r.mu.Unlock()
	<-rt.done
	return rt.labels, rt.err
}

// startLocked grows the next round's tree on a lane the caller holds.
func (r *roundTrees) startLocked() {
	t := r.next
	r.next++
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.grow(&r.rounds[t])
		r.mu.Lock()
		close(r.rounds[t].done)
		if r.waiting == t {
			r.waiting = -1 // the round loop inherits this lane
		} else {
			r.releaseLocked()
		}
		r.mu.Unlock()
	}()
}

// grow grows one round's tree on one worker: the lanes are this build's
// parallelism, and a tree must hold no more than the one it runs on.
func (r *roundTrees) grow(rt *roundTree) {
	r.add(1)
	rt.labels, rt.err = twomeans.Cluster(r.data, twomeans.Config{K: r.k, Seed: rt.seed, Workers: 1})
	r.add(-1)
}

// releaseLocked hands a lane to the next tree still to start, else frees it.
func (r *roundTrees) releaseLocked() {
	if !r.stopped && r.next < len(r.rounds) {
		r.startLocked()
		return
	}
	r.free++
}

// wide runs fn on the round loop's lane plus every lane free when it starts.
func (r *roundTrees) wide(fn func(workers int)) {
	r.mu.Lock()
	extra := r.free
	r.free = 0
	r.addLocked(1 + extra)
	r.mu.Unlock()
	fn(1 + extra)
	r.mu.Lock()
	r.addLocked(-1 - extra)
	for ; extra > 0; extra-- {
		r.releaseLocked()
	}
	r.mu.Unlock()
}

// add counts n more lanes busy (negative when work ends).
func (r *roundTrees) add(n int) {
	r.mu.Lock()
	r.addLocked(n)
	r.mu.Unlock()
}

func (r *roundTrees) addLocked(n int) {
	r.busy += n
	r.peak = max(r.peak, r.busy)
}

// stop starts no further tree and returns once every started one is done,
// so no tree outlives the build.
func (r *roundTrees) stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.wg.Wait()
}
