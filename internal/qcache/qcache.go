// Package qcache is the sharded query-result cache of the read path: it
// memoizes the answers of conjunctive queries and serves repeats without
// re-evaluating the join — the cheap half of the cache-plus-cost-based-
// evaluation recipe public KB endpoints rely on to survive skewed repeat
// traffic.
//
// # One LRU, one generation rule
//
// LRU is the one store: entries spread over 2^k independently locked
// shards, each an LRU list, so concurrent readers contend only within a
// shard and eviction is O(1). Its owner supplies one generation source,
// and every entry records the generation read before its value was
// computed; a hit is served only while the source still returns that
// value, and an entry it no longer matches is dropped and counted stale.
// The two caches on the serving path both hold encoded replies — the
// head serve.AppendRowsHead's format fixes, without the members a hit
// writes afresh — so a hit is one lookup and one write:
//
//   - kbserve's reply cache, over a core.Store: the generation is the
//     store's WriteGen, the second half of the Kb-Epoch header.
//   - kbrouter's reply cache, over the shard tier: the generation is
//     shardkb.Client.Generation, the count of shard epoch changes the
//     router has observed.
//
// Cache is the same store-side rule over binding sets instead of bytes,
// for callers that want the bindings themselves (Cache.Query).
//
// The cache never observes writes and writers never take cache locks:
// any write advances the generation, so it makes every entry stale, and
// each is recomputed on its next request. That is coarse on purpose. A
// served store is written only by its load, before it serves, so nothing
// is lost by it, and a hit costs one atomic load. Reading the generation
// before evaluating is what keeps an entry honest under a racing write:
// core.Store advances WriteGen only after the write's facts are indexed,
// so a write that overlaps the evaluation leaves the entry stale from the
// start. The cache is exactly as consistent as an uncached query racing
// the same write.
//
// # Shard choice
//
// A key's shard is a fixed hash of the key (FNV-1a), not a per-process
// seed, so the same request sequence fills and evicts the same entries in
// every process — benchmark hit ratios repeat from run to run. The price:
// a client who knows the hash can aim all its keys at one of the shards
// and so shrink the cache to one shard's capacity for its own traffic. It
// cannot make any operation more expensive than a miss: the per-shard
// maps are Go maps, which stay seeded.
package qcache

import (
	"container/list"
	"context"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"

	"kbharvest/internal/core"
)

// Options tunes a cache.
type Options struct {
	// Shards is the number of independently locked cache shards, rounded
	// up to a power of two. Default 16.
	Shards int
	// PerShard is the maximum number of cached queries per shard (LRU
	// evicted beyond it). Default 256.
	PerShard int
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`    // includes stale entries
	Stale     uint64 `json:"stale"`     // entries dropped for an older generation
	Evictions uint64 `json:"evictions"` // LRU capacity evictions
	Entries   int    `json:"entries"`   // current cached queries
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// LRU is a sharded LRU map from query keys to values of type V, each
// served only while the owner's generation is the one it was stored with.
// It is safe for concurrent use.
type LRU[V any] struct {
	gen    func() uint64
	shards []lruShard[V]
	mask   uint64

	hits, misses, stale, evictions atomic.Uint64
}

type lruEntry[V any] struct {
	key string
	gen uint64
	val V
}

type lruShard[V any] struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru list.List // front = most recently used; values are *lruEntry[V]
	cap int
}

// NewLRU returns an empty LRU whose entries are current while gen returns
// the generation they were stored with; gen is called once per Get and
// must be cheap (an atomic load).
func NewLRU[V any](opt Options, gen func() uint64) *LRU[V] {
	shards := opt.Shards
	if shards <= 0 {
		shards = 16
	}
	// Round up to a power of two so key hashes spread by masking.
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := opt.PerShard
	if perShard <= 0 {
		perShard = 256
	}
	l := &LRU[V]{gen: gen, shards: make([]lruShard[V], n), mask: uint64(n - 1)}
	for i := range l.shards {
		l.shards[i].m = make(map[string]*list.Element)
		l.shards[i].cap = perShard
	}
	return l
}

// shardOf picks key's shard by FNV-1a (see the package doc).
func (l *LRU[V]) shardOf(key string) *lruShard[V] {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &l.shards[h&l.mask]
}

// Get returns the value cached under key if it was stored at the current
// generation, counting a hit, or reports a miss — dropping the entry, and
// counting it stale, when it was stored at another.
func (l *LRU[V]) Get(key string) (V, bool) {
	gen := l.gen()
	sh := l.shardOf(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*lruEntry[V])
		if e.gen == gen {
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			l.hits.Add(1)
			return e.val, true
		}
		sh.lru.Remove(el)
		delete(sh.m, key)
		l.stale.Add(1)
	}
	sh.mu.Unlock()
	l.misses.Add(1)
	var zero V
	return zero, false
}

// Put caches v, computed after reading generation gen, under key as the
// most recently used entry, replacing any entry a concurrent miss filled,
// and evicts beyond the shard's capacity.
func (l *LRU[V]) Put(key string, gen uint64, v V) {
	sh := l.shardOf(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		sh.lru.Remove(el)
	}
	sh.m[key] = sh.lru.PushFront(&lruEntry[V]{key: key, gen: gen, val: v})
	for sh.lru.Len() > sh.cap {
		last := sh.lru.Back()
		sh.lru.Remove(last)
		delete(sh.m, last.Value.(*lruEntry[V]).key)
		l.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (l *LRU[V]) Stats() Stats {
	s := Stats{
		Hits:      l.hits.Load(),
		Misses:    l.misses.Load(),
		Stale:     l.stale.Load(),
		Evictions: l.evictions.Load(),
	}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		s.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return s
}

// Cache is the store-backed cache: conjunctive query results over a
// core.Store, held as bindings and current while the store's WriteGen is
// unchanged. It is safe for concurrent use.
type Cache struct {
	st  *core.Store
	lru *LRU[[]core.Binding]
}

// New returns a cache over st.
func New(st *core.Store, opt Options) *Cache {
	return &Cache{st: st, lru: NewLRU[[]core.Binding](opt, st.WriteGen)}
}

// Key renders the canonical cache key of a query: its patterns plus the
// limit (a truncated result set cannot serve a larger request). It is
// injective: each position is tagged as a variable ('?') or by its
// constant's kind, and every string after a tag is length-prefixed, so no
// byte inside a name or a literal can be read as a boundary. Limits <= 0
// all mean "every row" and share a key.
func Key(patterns []core.Pattern, limit int) string {
	b := make([]byte, 0, 256) // on the stack for the usual query
	for _, p := range patterns {
		for _, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
			if pt.Var != "" {
				b = appendField(append(b, '?'), string(pt.Var))
				continue
			}
			b = append(b, byte(pt.Const.Kind)) // never '?' or '#'
			b = appendField(b, pt.Const.Value)
			b = appendField(b, pt.Const.Lang)
			b = appendField(b, pt.Const.Datatype)
		}
	}
	if limit > 0 {
		b = strconv.AppendInt(append(b, '#'), int64(limit), 10)
	}
	return string(b)
}

// appendField appends s prefixed by its length.
func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Query evaluates a conjunction of patterns through the cache, returning
// the bindings, whether they came from a still-valid cache entry, and any
// evaluation error (ctx cancellation; errors are never cached). limit <= 0
// means all results. The returned bindings are shared with the cache and
// must not be modified.
func (c *Cache) Query(ctx context.Context, patterns []core.Pattern, limit int) ([]core.Binding, bool, error) {
	key := Key(patterns, limit)
	if bindings, ok := c.lru.Get(key); ok {
		return bindings, true, nil
	}
	gen := c.st.WriteGen()
	var bindings []core.Binding
	if err := c.st.QueryFunc(ctx, patterns, limit, func(b core.Binding) bool {
		bindings = append(bindings, b)
		return true
	}); err != nil {
		return nil, false, err
	}
	c.lru.Put(key, gen, bindings)
	return bindings, false, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.lru.Stats() }
