package server

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/store"
	"gkmeans/internal/wal"
)

// nameRE constrains index names so they embed cleanly in URL paths (and,
// with -data, in WAL/checkpoint file names).
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// errDuplicate marks a registration under a name that is already serving;
// the HTTP layer maps it to 409 Conflict.
var errDuplicate = errors.New("already registered")

// entry is one served index name. The index itself lives in an
// epoch-versioned atomic cell: every search loads a consistent (index,
// epoch) snapshot with one atomic read, and the write path — insert,
// delete, flush, compaction — publishes a copy-on-write successor with one
// atomic swap, so readers never observe a torn shard set and are never
// blocked by writers.
//
// Writes are serialised by mu: the id sequence, the WAL order and the
// memtable contents must agree, so there is exactly one writer at a time
// per index. Search never touches mu.
type entry struct {
	name  string
	path  string // source .gkx file, "" for in-process registration
	cur   store.Versioned[*gkmeans.Index]
	coal  *coalescer
	cache *queryCache // nil when Config.CacheSize is 0

	// Write path, guarded by mu. wal is nil when the server has no data
	// dir (mutations are accepted but volatile). mem buffers inserted
	// vectors until a shard build is worthwhile; memDel holds deletes
	// aimed at still-buffered rows, applied in the same flush that makes
	// the rows searchable.
	mu        sync.Mutex
	wal       *wal.Log
	mem       *store.Memtable
	memDel    map[int32]bool
	threshold int

	logf    func(format string, args ...any) // the server's logger
	durable bool                             // wal != nil, fixed at registration, readable without mu
	pending atomic.Int64                     // mem.Rows(), readable without mu

	batchRequests   atomic.Int64 // explicit batch searches (bypass the coalescer)
	batchQueries    atomic.Int64 // rows answered by explicit batch searches
	clusterRequests atomic.Int64
	inserts         atomic.Int64 // vectors accepted by /insert
	deletes         atomic.Int64 // ids accepted by /delete
	flushes         atomic.Int64 // memtable flushes (incremental shard builds)
	compactions     atomic.Int64
}

// newEntry wires an entry around its initial index. The coalescer takes
// the provider function, not the index value, so in-flight micro-batches
// always run against the newest epoch; the query cache (nil when disabled)
// is pinned to that epoch sequence.
func newEntry(name, path string, idx *gkmeans.Index, window time.Duration, maxBatch, cacheSize int) *entry {
	e := &entry{
		name:   name,
		path:   path,
		cache:  newQueryCache(cacheSize),
		mem:    store.NewMemtable(idx.Dim()),
		memDel: make(map[int32]bool),
	}
	e.cur.Swap(idx)
	e.coal = newCoalescer(e.index, window, maxBatch)
	return e
}

// index returns the current index snapshot.
func (e *entry) index() *gkmeans.Index {
	idx, _ := e.cur.Load()
	return idx
}

// info snapshots the entry for the list endpoint.
func (e *entry) info() client.IndexInfo { return e.infoAt(e.cur.Load()) }

// infoAt describes the entry at one loaded (index, epoch) pair, so every
// field of a reply comes from the same snapshot.
func (e *entry) infoAt(idx *gkmeans.Index, epoch uint64) client.IndexInfo {
	return client.IndexInfo{
		Name:        e.name,
		N:           idx.N(),
		Dim:         idx.Dim(),
		DType:       idx.DType().String(),
		Shards:      idx.Shards(),
		HasClusters: idx.Clusters() != nil,
		Routed:      idx.Routed(),
		Epoch:       epoch,
		Live:        idx.Live(),
		Deleted:     idx.Deleted(),
		Pending:     int(e.pending.Load()),
	}
}

// stats is the one reader of an entry's serving state: one load of the
// versioned cell for the index and its epoch, then the coalescer, the cache
// and the entry's own counters. It includes the index's hot-path totals, the
// per-query search work (distance computations, candidate expansions) the
// early-termination rule bounds. /stats returns the snapshot and /metrics
// renders it (see indexFamilies).
func (e *entry) stats() client.IndexStats {
	idx, epoch := e.cur.Load()
	queries, batches, maxBatch := e.coal.Stats()
	hot := idx.SearchStats()
	hits, misses, evictions, entries := e.cache.counters()
	return client.IndexStats{
		IndexInfo:          e.infoAt(idx, epoch),
		Path:               e.path,
		Queries:            queries + e.batchQueries.Load() + hits,
		Batches:            batches,
		MaxBatch:           maxBatch,
		BatchRequests:      e.batchRequests.Load(),
		ClusterRequests:    e.clusterRequests.Load(),
		CoalesceWindowNS:   int64(e.coal.window),
		Queued:             e.coal.queued.Load(),
		QueueWaitNS:        e.coal.queueWait.Load(),
		DistanceComps:      hot.DistanceComps,
		ExpandedCandidates: hot.ExpandedCandidates,
		ShardsProbed:       hot.ShardsProbed,
		RoutedQueries:      hot.RoutedQueries,
		Inserts:            e.inserts.Load(),
		Deletes:            e.deletes.Load(),
		Flushes:            e.flushes.Load(),
		Compactions:        e.compactions.Load(),
		Durable:            e.durable,
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheEvictions:     evictions,
		CacheEntries:       entries,
	}
}

// registry is the concurrent-safe name → entry map behind /v1/indexes.
// Registration is cheap relative to serving, so a single RWMutex suffices:
// the hot search path takes only a read lock for the name lookup — the
// index value itself is resolved lock-free through the entry's versioned
// cell.
type registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

func newRegistry() *registry {
	return &registry{entries: make(map[string]*entry)}
}

// publish makes a fully constructed entry visible. It fails on a
// duplicate name so a re-registration cannot silently swap an index out
// from under live traffic.
func (r *registry) publish(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("index %q: %w", e.name, errDuplicate)
	}
	r.entries[e.name] = e
	return nil
}

// get looks up a served index by name.
func (r *registry) get(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// list returns every entry sorted by name.
func (r *registry) list() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// closeAll drains every coalescer and closes the write-ahead logs; part of
// graceful shutdown. Buffered (unflushed) rows are not built into shards —
// the WAL already holds them, and the next startup replays them.
func (r *registry) closeAll() {
	for _, e := range r.list() {
		e.coal.Close()
		e.mu.Lock()
		if e.wal != nil {
			e.wal.Close()
		}
		e.mu.Unlock()
	}
}
