package server

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"gkmeans"
)

// queryCache is a sharded LRU of search results for one served index,
// keyed by (query bytes, topK, ef, nprobe) and pinned to the index epoch
// the results were computed at.
//
// Correctness contract (ARCHITECTURE.md invariant 8): a cache hit is
// bit-identical to the cold search it replaces, and a hit can never cross
// an epoch. Both follow from two rules:
//
//   - an entry is only stored when the epoch observed before the search
//     equals the epoch observed after it (no mutation was published while
//     the search ran), and it is tagged with that epoch;
//   - a lookup only hits when the entry's epoch equals the index's current
//     epoch. Epochs strictly increase (store.Versioned.Swap), so equality
//     proves the entry was computed against exactly the index snapshot now
//     serving, and the searches it short-circuits are deterministic
//     (worker-count independent), so the stored neighbours are the bytes a
//     cold search would produce.
//
// Invalidation is therefore lazy: a mutation does not walk the cache, it
// just bumps the epoch, and stale entries die on their next lookup (or age
// out of the LRU). Hash collisions cannot serve wrong results: the stored
// key — including the full query vector — is compared before a hit is
// declared.
//
// The cache is sharded by key hash: cacheShardCount independently locked
// LRUs, so concurrent lookups contend only within a shard. Capacity is
// split evenly across shards, which makes eviction deterministic for a
// sequential request trace (each shard is strict LRU) — the property the
// determinism tests pin across worker counts.
type queryCache struct {
	shards []cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheShardCount spreads lock contention; a power of two so the hash can
// be masked. 16 shards keep the per-shard mutex uncontended at the
// concurrency levels one process serves.
const cacheShardCount = 16

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	table map[uint64]*list.Element // key hash → element; collisions overwrite
}

type cacheEntry struct {
	hash   uint64
	query  []float32 // full key: compared on lookup, so collisions miss
	topK   int
	ef     int
	nprobe int
	epoch  uint64
	res    []gkmeans.Neighbor
}

// newQueryCache builds a cache holding at most capacity entries in total;
// capacity <= 0 returns nil (callers treat a nil cache as disabled).
func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShardCount - 1) / cacheShardCount
	c := &queryCache{shards: make([]cacheShard, cacheShardCount)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:   perShard,
			ll:    list.New(),
			table: make(map[uint64]*list.Element, perShard),
		}
	}
	return c
}

// hashKey is FNV-1a over the query's float bits and the search parameters.
// Float32 NaN payloads and signed zeros hash by representation, matching
// the bit-identity contract: two queries are "the same" exactly when their
// bytes are.
func hashKey(q []float32, topK, ef, nprobe int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64, bytes int) {
		for s := 0; s < bytes*8; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for _, f := range q {
		mix(uint64(math.Float32bits(f)), 4)
	}
	mix(uint64(topK), 8)
	mix(uint64(ef), 8)
	mix(uint64(nprobe), 8)
	return h
}

func (e *cacheEntry) matches(q []float32, topK, ef, nprobe int) bool {
	if e.topK != topK || e.ef != ef || e.nprobe != nprobe || len(e.query) != len(q) {
		return false
	}
	for i, f := range q {
		if math.Float32bits(e.query[i]) != math.Float32bits(f) {
			return false
		}
	}
	return true
}

// get returns the cached results for the key at exactly epoch. A stale
// entry (older epoch) is removed on sight so the table does not fill with
// dead weight between mutations.
func (c *queryCache) get(q []float32, topK, ef, nprobe int, epoch uint64) ([]gkmeans.Neighbor, bool) {
	if c == nil {
		return nil, false
	}
	h := hashKey(q, topK, ef, nprobe)
	sh := &c.shards[h&(cacheShardCount-1)]
	sh.mu.Lock()
	el, ok := sh.table[h]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch || !ent.matches(q, topK, ef, nprobe) {
		if ent.epoch != epoch {
			// Stale: the index moved on. Epochs never repeat, so this entry
			// can never hit again — drop it now.
			sh.ll.Remove(el)
			delete(sh.table, h)
		}
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.ll.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return ent.res, true
}

// put stores results computed at epoch. The query is copied (the request
// buffer is reused by the HTTP layer); the result slice is stored as-is
// and must never be mutated by readers — the handlers only encode it.
func (c *queryCache) put(q []float32, topK, ef, nprobe int, epoch uint64, res []gkmeans.Neighbor) {
	if c == nil {
		return
	}
	h := hashKey(q, topK, ef, nprobe)
	sh := &c.shards[h&(cacheShardCount-1)]
	ent := &cacheEntry{
		hash:  h,
		query: append([]float32(nil), q...),
		topK:  topK, ef: ef, nprobe: nprobe,
		epoch: epoch,
		res:   res,
	}
	sh.mu.Lock()
	if el, ok := sh.table[h]; ok {
		// Same hash: either a refresh of this key at a newer epoch or a
		// collision — both just replace the old entry.
		el.Value = ent
		sh.ll.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.table[h] = sh.ll.PushFront(ent)
	evicted := 0
	for sh.ll.Len() > sh.cap {
		last := sh.ll.Back()
		sh.ll.Remove(last)
		delete(sh.table, last.Value.(*cacheEntry).hash)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// counters snapshots hits/misses/evictions and the resident entry count
// across shards (an O(shards) walk, for stats, not the hot path); all zero
// for a disabled cache.
func (c *queryCache) counters() (hits, misses, evictions int64, entries int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += sh.ll.Len()
		sh.mu.Unlock()
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), entries
}
