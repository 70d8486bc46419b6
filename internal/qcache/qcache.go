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
// shard and eviction is O(1). It knows nothing about what makes an entry
// stale; its owner supplies a validity predicate, checked on every hit
// under the shard lock, and a failing entry is dropped and counted as
// stale. The two caches on the serving path both hold encoded replies —
// the head serve.AppendRowsHead's format fixes, without the members a hit
// writes afresh — so a hit is one lookup and one write:
//
//   - kbserve's reply cache, over a core.Store: an entry is valid while
//     the Gens it captured (below) are current.
//   - kbrouter's reply cache, over the shard tier: an entry is valid while
//     shardkb.Client.Generation — the count of shard epoch changes the
//     router has observed — is unchanged.
//
// Cache is the same store-side rule over binding sets instead of bytes,
// for callers that want the bindings themselves (Cache.Query).
//
// # The generation-invalidation contract
//
// The cache never observes writes and writers never take cache locks.
// Instead, the store exports monotonic write generations
// (core.Store.PatternGen): every index stripe carries a counter that is
// bumped by each insertion into the stripe (the store is append-only, so
// an insertion is the only write), and a store-wide counter (WriteGen)
// backs the patterns no single stripe can vouch for (full scans, patterns
// naming terms the dictionary has never interned). Fallback values are tagged
// (high bit set) so they occupy a value domain disjoint from stripe
// generations: a generation recorded while a pattern's term was unknown
// can never compare equal to the stripe generation the pattern reads
// after a write interns the term. Because an insert bumps the stripes of
// all three of its leading terms, any write that can change the matches
// of a pattern necessarily advances that pattern's generation.
//
// A cache entry therefore records, for each pattern of its query, the
// pattern's generation observed *before* evaluation (CaptureGens). A hit
// validates each recorded pattern with one atomic load (Gens.Valid): if
// every generation is unchanged, no write can have altered the result; if
// any differs, the entry is discarded and the query re-evaluated. Generations advancing
// spuriously (an unrelated write hashing to the same stripe) costs a
// recomputation, never a stale answer. Capturing the generations before
// evaluation makes a write racing the fill land the entry with an
// already-stale generation, so it self-invalidates on its first hit — the
// cache is exactly as consistent as an uncached query racing the same
// write. The router's cache follows the same rule with its one
// generation.
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
	"kbharvest/internal/rdf"
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
	Misses    uint64 `json:"misses"`    // includes generation invalidations
	Stale     uint64 `json:"stale"`     // entries discarded on generation mismatch
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

// LRU is a sharded LRU map from query keys to values of type V whose
// entries are checked by the owner's validity predicate on every hit. It
// is safe for concurrent use.
type LRU[V any] struct {
	valid  func(V) bool
	shards []lruShard[V]
	mask   uint64

	hits, misses, stale, evictions atomic.Uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

type lruShard[V any] struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru list.List // front = most recently used; values are *lruEntry[V]
	cap int
}

// NewLRU returns an empty LRU whose hits must satisfy valid; valid runs
// under a shard lock and must be cheap (a few atomic loads).
func NewLRU[V any](opt Options, valid func(V) bool) *LRU[V] {
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
	l := &LRU[V]{valid: valid, shards: make([]lruShard[V], n), mask: uint64(n - 1)}
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

// Get returns the value cached under key if it is still valid, counting a
// hit, or reports a miss — dropping the entry, and counting it stale, when
// it failed validation.
func (l *LRU[V]) Get(key string) (V, bool) {
	sh := l.shardOf(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*lruEntry[V])
		if l.valid(e.val) {
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

// Put caches v under key as the most recently used entry, replacing any
// entry a concurrent miss filled, and evicts beyond the shard's capacity.
func (l *LRU[V]) Put(key string, v V) {
	sh := l.shardOf(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		sh.lru.Remove(el)
	}
	sh.m[key] = sh.lru.PushFront(&lruEntry[V]{key: key, val: v})
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

// Gens is what an entry over a core.Store records to validate its hits:
// the generation of each pattern of its query, read before the query was
// evaluated (see the package doc). Cache and kbserve's reply cache both
// keep one per entry.
type Gens []patternGen

type patternGen struct {
	pat rdf.Triple // the pattern's constant skeleton, as PatternGen takes it
	gen uint64
}

// CaptureGens reads the generation of each pattern in st. Call it before
// evaluating the patterns: a write racing the evaluation then leaves the
// entry stale from the start.
func CaptureGens(st *core.Store, patterns []core.Pattern) Gens {
	g := make(Gens, len(patterns))
	for i, p := range patterns {
		g[i].pat = constSkeleton(p)
		g[i].gen = st.PatternGen(g[i].pat)
	}
	return g
}

// Valid reports whether every generation recorded in g is still current
// in st — one atomic load per pattern.
func (g Gens) Valid(st *core.Store) bool {
	for _, pg := range g {
		if st.PatternGen(pg.pat) != pg.gen {
			return false
		}
	}
	return true
}

// Cache is the store-backed cache: conjunctive query results over a
// core.Store, held as bindings and validated by Gens. It is safe for
// concurrent use.
type Cache struct {
	st  *core.Store
	lru *LRU[*entry]
}

type entry struct {
	gens     Gens
	bindings []core.Binding
}

// New returns a cache over st.
func New(st *core.Store, opt Options) *Cache {
	return &Cache{st: st, lru: NewLRU(opt, func(e *entry) bool { return e.gens.Valid(st) })}
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
	if e, ok := c.lru.Get(key); ok {
		return e.bindings, true, nil
	}
	gens := CaptureGens(c.st, patterns)
	var bindings []core.Binding
	if err := c.st.QueryFunc(ctx, patterns, limit, func(b core.Binding) bool {
		bindings = append(bindings, b)
		return true
	}); err != nil {
		return nil, false, err
	}
	c.lru.Put(key, &entry{gens: gens, bindings: bindings})
	return bindings, false, nil
}

// constSkeleton reduces a pattern to the constant triple PatternGen keys
// on: variables — bound later by the join or not at all — act as
// wildcards, which is conservative (the chosen stripe is bumped by every
// write that could affect any instantiation of the pattern).
func constSkeleton(p core.Pattern) rdf.Triple {
	var t rdf.Triple
	if p.S.Var == "" {
		t.S = p.S.Const
	}
	if p.P.Var == "" {
		t.P = p.P.Const
	}
	if p.O.Var == "" {
		t.O = p.O.Const
	}
	return t
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.lru.Stats() }
