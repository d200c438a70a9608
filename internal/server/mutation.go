package server

import (
	"context"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/store"
	"gkmeans/internal/wal"
)

// The write path. Every mutation follows the same discipline under the
// entry's write mutex:
//
//  1. validate fully — nothing is logged that cannot be applied;
//  2. append the op to the WAL and fsync (when the server is durable) —
//     this is the acknowledgement point;
//  3. apply in memory: deletes publish a copy-on-write index snapshot via
//     one atomic swap, inserts accumulate in the memtable until
//     MemtableThreshold rows trigger a flush that builds them into a new
//     shard (plus any deletes aimed at the buffered rows), swaps once and
//     logs the shard it built, unsynced, for a replay to adopt.
//
// Searches load the current snapshot with one atomic read and are never
// blocked: a reader mid-search keeps its snapshot alive while writers move
// the entry forward. Buffered rows are durable but not searchable until
// their flush — callers that need immediate visibility can lower the
// threshold to 2.

// nextInsertID returns the external id the next inserted vector will get:
// ids continue past the index's id bound, offset by the rows already
// buffered. Caller holds e.mu.
func (e *entry) nextInsertID() int32 {
	return e.index().IDBound() + int32(e.mem.Rows())
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.InsertRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed insert request: %v", err)
		return
	}
	if len(req.Vectors) == 0 {
		writeError(w, http.StatusBadRequest, "insert needs at least one vector")
		return
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	// Index.Append refuses a Build-time clustering (its labels cannot
	// cover new rows), so a logged insert could never flush — reject it
	// here, before the WAL ack. A delete lifts the restriction: the root
	// API drops the clustering on the first Delete.
	if e.index().Clusters() != nil {
		writeError(w, http.StatusBadRequest,
			"index %q has a Build-time clustering and cannot accept inserts; rebuild it without clusters", e.name)
		return
	}
	idx := e.index()
	dim := idx.Dim()
	flat := make([]float32, 0, len(req.Vectors)*dim)
	for i, row := range req.Vectors {
		if len(row) != dim {
			writeError(w, http.StatusBadRequest,
				"vector %d has dimensionality %d, index %q has %d", i, len(row), e.name, dim)
			return
		}
		// On a uint8 index every inserted value must be an exact byte;
		// rejecting here keeps bad vectors out of the WAL, where they would
		// fail every later flush and replay instead.
		if err := idx.CheckByteValues(row); err != nil {
			writeError(w, http.StatusBadRequest, "vector %d: %v", i, err)
			return
		}
		flat = append(flat, row...)
	}
	firstID := e.nextInsertID()
	if int64(firstID)+int64(len(req.Vectors)) > math.MaxInt32 {
		writeError(w, http.StatusBadRequest, "insert would overflow the id space")
		return
	}

	if e.wal != nil {
		payload, err := wal.EncodeInsert(firstID, dim, flat)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := e.wal.Append(payload); err != nil {
			writeError(w, http.StatusInternalServerError, "logging insert: %v", err)
			return
		}
	}
	for i := 0; i < len(req.Vectors); i++ {
		e.mem.Add(flat[i*dim : (i+1)*dim])
	}
	e.pending.Store(int64(e.mem.Rows()))
	e.inserts.Add(int64(len(req.Vectors)))

	flushed := false
	if e.mem.Rows() >= e.threshold {
		// The rows are already durable; a failed flush keeps them buffered
		// (and replayable), so it degrades visibility, not safety.
		if err := e.flushLocked(r.Context()); err != nil {
			s.logf("index %q: flush failed, %d rows stay buffered: %v", e.name, e.mem.Rows(), err)
		} else {
			flushed = true
		}
	}
	writeJSON(w, client.InsertResponse{
		FirstID: firstID,
		Count:   len(req.Vectors),
		Epoch:   e.cur.Epoch(),
		Flushed: flushed,
		Pending: e.mem.Rows(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.DeleteRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed delete request: %v", err)
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "delete needs at least one id")
		return
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	idx := e.index()
	bound := idx.IDBound()
	memHi := bound + int32(e.mem.Rows())
	var idxIDs, memIDs []int32
	for _, id := range req.IDs {
		switch {
		case id >= 0 && id < bound:
			idxIDs = append(idxIDs, id)
		case id >= bound && id < memHi:
			memIDs = append(memIDs, id)
		default:
			writeError(w, http.StatusBadRequest, "unknown id %d", id)
			return
		}
	}
	// Apply to a candidate snapshot first: Index.Delete is copy-on-write,
	// so a rejected id (e.g. one reclaimed by compaction) costs nothing and
	// nothing reaches the WAL.
	newIdx := idx
	if len(idxIDs) > 0 {
		var err error
		newIdx, err = idx.Delete(idxIDs...)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if e.wal != nil {
		payload, err := wal.EncodeDelete(req.IDs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := e.wal.Append(payload); err != nil {
			writeError(w, http.StatusInternalServerError, "logging delete: %v", err)
			return
		}
	}
	if newIdx != idx {
		e.cur.Swap(newIdx)
	}
	for _, id := range memIDs {
		e.memDel[id] = true
	}
	e.deletes.Add(int64(len(req.IDs)))
	writeJSON(w, client.DeleteResponse{
		Deleted: len(req.IDs),
		Epoch:   e.cur.Epoch(),
	})
}

// flushLocked builds the buffered rows into a new shard via Index.Append,
// publishes it (publishFlush), and then logs the shard it built, so that a
// replay adopts it instead of building the rows again. Caller holds e.mu. A
// flush with fewer than two rows waits for more: a shard graph needs at
// least two vertices.
func (e *entry) flushLocked(ctx context.Context) error {
	if e.mem.Rows() < 2 {
		return nil
	}
	first, rows := e.index().IDBound(), e.mem.Rows()
	newIdx, err := e.index().Append(ctx, e.memMatrix())
	if err != nil {
		return err
	}
	if err := e.publishFlush(newIdx); err != nil {
		return err
	}
	if e.wal != nil {
		// Unsynced: the next acknowledged record's fsync makes it durable.
		// A record that is lost, torn or never written costs a replay the
		// build it would have saved, nothing more.
		state, err := newIdx.EncodeSegment(newIdx.Shards() - 1)
		var payload []byte
		if err == nil {
			payload, err = wal.EncodeSegment(first, rows, state)
		}
		if err == nil {
			err = e.wal.AppendUnsynced(payload)
		}
		if err != nil {
			e.logf("index %q: logging the flushed shard failed, a replay will build it: %v", e.name, err)
		}
	}
	return nil
}

// memMatrix returns a copy of the buffered rows, the input of a flush.
// Caller holds e.mu.
func (e *entry) memMatrix() *gkmeans.Matrix {
	m := gkmeans.NewMatrix(e.mem.Rows(), e.mem.Dim())
	copy(m.Data, e.mem.Data())
	return m
}

// publishFlush finishes a flush whose shard newIdx holds: it applies the
// deletes aimed at the buffered rows, swaps the result in and empties the
// memtable. Caller holds e.mu (or owns the entry exclusively, during
// replay).
func (e *entry) publishFlush(newIdx *gkmeans.Index) error {
	if len(e.memDel) > 0 {
		var err error
		if newIdx, err = newIdx.Delete(e.memDelIDs()...); err != nil {
			return err
		}
	}
	e.cur.Swap(newIdx)
	e.mem.Reset()
	e.memDel = make(map[int32]bool)
	e.pending.Store(0)
	e.flushes.Add(1)
	return nil
}

// memDelIDs returns the buffered deletes in ascending id order, the order a
// flush applies them and a WAL rewrite logs them. Caller holds e.mu.
func (e *entry) memDelIDs() []int32 { return slices.Sorted(maps.Keys(e.memDel)) }

// replayWAL re-applies every surviving log record to the entry's index and
// memtable, reproducing exactly the in-memory state the server had when
// each record was acknowledged. Inserts whose ids fall below the current
// id bound were already folded into the checkpoint and are skipped;
// deletes of ids a later compaction reclaimed are likewise no-ops. Called
// before the entry is published, so no locking. Replay never writes to the
// log.
func (e *entry) replayWAL() (int, error) {
	rp := replay{e: e}
	_, err := e.wal.Replay(func(payload []byte) error {
		op, err := wal.Decode(payload)
		if err != nil {
			return err
		}
		return rp.apply(op)
	})
	if err == nil && rp.due {
		err = rp.flush(nil)
	}
	e.pending.Store(int64(e.mem.Rows()))
	if rp.refusals > 0 {
		e.logf("index %q: built %d flushed shards instead of adopting their logged state; first refusal: %v",
			e.name, rp.refusals, rp.refused)
	}
	return rp.applied, err
}

// replay is the state of one replayWAL. A flush happens where the live
// server ran it, after the insert that filled the memtable, but how is up
// to the next record: the segment record that flush logged is adopted
// (Index.AppendEncoded); any other record, a refused segment record or the
// end of the log builds the rows (Index.Append) as the flush did.
type replay struct {
	e        *entry
	applied  int
	due      bool  // an insert filled the memtable; the next record decides the flush
	refusals int   // segment records refused while a flush was due
	refused  error // the first refusal's reason
}

func (rp *replay) apply(op wal.Op) error {
	if op.Segment != nil {
		return rp.segment(op)
	}
	if rp.due {
		if err := rp.flush(nil); err != nil {
			return err
		}
	}
	if op.Insert {
		return rp.insert(op)
	}
	return rp.delete(op)
}

// segment adopts a segment record when a flush is due and the record covers
// exactly the buffered rows. One whose rows are already below the id bound
// is skipped like a folded insert; without a due flush the record is only
// a hint and is ignored.
func (rp *replay) segment(op wal.Op) error {
	e := rp.e
	bound := e.index().IDBound()
	switch {
	case int64(op.FirstID)+int64(op.Rows) <= int64(bound) || !rp.due:
		return nil
	case op.FirstID != bound || op.Rows != e.mem.Rows():
		rp.refuse(fmt.Errorf("segment record covers ids %d..%d, the memtable holds %d..%d",
			op.FirstID, int64(op.FirstID)+int64(op.Rows), bound, int64(bound)+int64(e.mem.Rows())))
		return rp.flush(nil)
	}
	return rp.flush(op.Segment)
}

func (rp *replay) refuse(err error) {
	if rp.refusals == 0 {
		rp.refused = err
	}
	rp.refusals++
}

// flush builds the buffered rows into a shard, or adopts state for it when
// state is set and AppendEncoded accepts it, and publishes the shard as
// flushLocked does.
func (rp *replay) flush(state []byte) error {
	rp.due = false
	e := rp.e
	if e.mem.Rows() < 2 {
		return nil
	}
	idx, m := e.index(), e.memMatrix()
	if state != nil {
		newIdx, err := idx.AppendEncoded(context.Background(), m, state)
		if err == nil {
			return e.publishFlush(newIdx)
		}
		rp.refuse(err)
	}
	newIdx, err := idx.Append(context.Background(), m)
	if err != nil {
		return err
	}
	return e.publishFlush(newIdx)
}

func (rp *replay) insert(op wal.Op) error {
	e := rp.e
	idx := e.index()
	if op.Dim != idx.Dim() {
		return fmt.Errorf("insert op has dimensionality %d, index has %d", op.Dim, idx.Dim())
	}
	count := int32(op.Count())
	expect := e.nextInsertID()
	switch {
	case op.FirstID+count <= idx.IDBound():
		return nil // fully folded into the checkpoint
	case op.FirstID == expect:
		for r := 0; r < op.Count(); r++ {
			e.mem.Add(op.Vectors[r*op.Dim : (r+1)*op.Dim])
		}
		rp.applied++
		rp.due = e.mem.Rows() >= e.threshold
		return nil
	default:
		// Flushes always consume whole ops, so an op can never straddle the
		// id bound; a gap or overlap means the WAL and checkpoint diverged.
		return fmt.Errorf("insert op at id %d does not line up with id bound %d (+%d buffered)",
			op.FirstID, idx.IDBound(), e.mem.Rows())
	}
}

func (rp *replay) delete(op wal.Op) error {
	e := rp.e
	idx := e.index()
	bound := idx.IDBound()
	memHi := bound + int32(e.mem.Rows())
	changed := false
	for _, id := range op.IDs {
		switch {
		case id < bound:
			// Deleting an already-tombstoned id is a no-op; an id the
			// checkpoint's compaction reclaimed fails to resolve — both are
			// records whose effect is already durable, so skip, don't fail.
			if next, err := idx.Delete(id); err == nil {
				idx, changed = next, true
			}
		case id < memHi:
			e.memDel[id] = true
		}
	}
	if changed {
		e.cur.Swap(idx)
	}
	rp.applied++
	return nil
}

// compactLoop periodically offers every entry to the compactor until the
// server starts draining.
func (s *Server) compactLoop() {
	t := time.NewTicker(s.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.draining:
			return
		case <-t.C:
			for _, e := range s.reg.list() {
				if _, err := s.compactEntry(e); err != nil {
					s.logf("index %q: compaction failed: %v", e.name, err)
				}
			}
		}
	}
}

// CompactNow runs one synchronous compaction round for the named index,
// applying the configured policy, and reports whether a compaction
// actually ran. Exposed for operational tooling and tests; the background
// loop calls the same code.
func (s *Server) CompactNow(name string) (bool, error) {
	e, ok := s.reg.get(name)
	if !ok {
		return false, fmt.Errorf("unknown index %q", name)
	}
	return s.compactEntry(e)
}

// compactEntry rebuilds the shards the policy selects, swaps the compacted
// index in, and — when durable — checkpoints it so the WAL can shed every
// record the checkpoint now covers. Holding e.mu stalls writers for the
// duration; searches keep running against the pre-compaction snapshot and
// observe a single atomic transition whose results are identical (only
// dead rows are dropped).
func (s *Server) compactEntry(e *entry) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	idx := e.index()
	infos := idx.ShardInfos()
	stats := make([]store.ShardStat, len(infos))
	for i, si := range infos {
		stats[i] = store.ShardStat{Rows: si.Rows, Deleted: si.Deleted, Gen: si.Gen}
	}
	plan := s.cfg.Policy.Plan(stats)
	if plan == nil {
		return false, nil
	}
	newIdx, err := idx.Compact(context.Background(), plan...)
	if err != nil {
		return false, err
	}
	e.cur.Swap(newIdx)
	e.compactions.Add(1)
	s.logf("index %q: compacted shards %v (%d live rows, epoch %d)",
		e.name, plan, newIdx.Live(), e.cur.Epoch())
	if e.wal == nil {
		return true, nil
	}
	return true, s.checkpointLocked(e, newIdx)
}

// checkpointLocked persists idx as the new on-disk baseline and rewrites
// the WAL to hold only the still-buffered operations. The order matters
// for crash safety: the checkpoint lands first (SaveIndex fsyncs the file,
// renames it into place and fsyncs the directory), so a crash before the
// WAL rewrite replays old records against the new checkpoint — harmless,
// because replay skips ops the checkpoint's id bound and tombstones already
// cover. The rewrite itself builds a fresh log and renames it over the old
// one, then fsyncs the directory, so no crash point — power loss included —
// leaves buffered rows unlogged. Caller holds e.mu.
func (s *Server) checkpointLocked(e *entry, idx *gkmeans.Index) error {
	if err := gkmeans.SaveIndex(s.checkpointPath(e.name), idx); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}

	tmp := e.wal.Path() + ".rewrite"
	os.Remove(tmp) // a stale leftover would make appends land after its records
	nw, err := wal.Open(tmp)
	if err != nil {
		return fmt.Errorf("rewriting WAL: %w", err)
	}
	if e.mem.Rows() > 0 {
		payload, err := wal.EncodeInsert(idx.IDBound(), e.mem.Dim(), e.mem.Data())
		if err == nil {
			err = nw.Append(payload)
		}
		if err != nil {
			nw.Close()
			return fmt.Errorf("rewriting WAL: %w", err)
		}
	}
	if len(e.memDel) > 0 {
		payload, err := wal.EncodeDelete(e.memDelIDs())
		if err == nil {
			err = nw.Append(payload)
		}
		if err != nil {
			nw.Close()
			return fmt.Errorf("rewriting WAL: %w", err)
		}
	}
	if err := nw.Close(); err != nil {
		return fmt.Errorf("rewriting WAL: %w", err)
	}
	if err := os.Rename(tmp, e.wal.Path()); err != nil {
		return fmt.Errorf("swapping WAL: %w", err)
	}
	if err := syncDir(filepath.Dir(e.wal.Path())); err != nil {
		return fmt.Errorf("swapping WAL: %w", err)
	}
	old := e.wal
	reopened, err := wal.Open(old.Path())
	if err != nil {
		return fmt.Errorf("reopening WAL: %w", err)
	}
	old.Close()
	e.wal = reopened
	return nil
}

// syncDir fsyncs a directory, making the renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
