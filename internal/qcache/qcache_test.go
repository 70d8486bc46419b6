package qcache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

func fixture() *core.Store {
	st := core.NewStore()
	st.Add(rdf.T("jobs", "founded", "apple"))
	st.Add(rdf.T("wozniak", "founded", "apple"))
	st.Add(rdf.T("gates", "founded", "microsoft"))
	st.Add(rdf.T("apple", "locatedIn", "cupertino"))
	st.Add(rdf.T("microsoft", "locatedIn", "redmond"))
	return st
}

func joinQuery() []core.Pattern {
	return []core.Pattern{
		{S: core.PVar("p"), P: core.PIRI("founded"), O: core.PVar("c")},
		{S: core.PVar("c"), P: core.PIRI("locatedIn"), O: core.PVar("city")},
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	st := fixture()
	c := New(st, Options{})
	ctx := context.Background()
	rows, cached, err := c.Query(ctx, joinQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first query reported cached")
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	rows2, cached, err := c.Query(ctx, joinQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("repeat query missed the cache")
	}
	if len(rows2) != 3 {
		t.Errorf("cached rows = %d, want 3", len(rows2))
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheInvalidatedByInsert(t *testing.T) {
	st := fixture()
	c := New(st, Options{})
	ctx := context.Background()
	if _, _, err := c.Query(ctx, joinQuery(), 0); err != nil {
		t.Fatal(err)
	}
	st.Add(rdf.T("next", "locatedIn", "redwood"))
	st.Add(rdf.T("jobs", "founded", "next"))
	rows, cached, err := c.Query(ctx, joinQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("entry survived a write that changed its answer")
	}
	if len(rows) != 4 {
		t.Errorf("post-insert rows = %d, want 4", len(rows))
	}
}

// A query naming a term the dictionary has never interned records the
// store-wide fallback generation. The write that then interns the term
// puts it on a fresh stripe whose counter starts near the recorded
// fallback value — with untagged generations a store holding one fact
// (writeGen=1) would see the new stripe also at generation 1 and serve
// the stale empty result. The fallback tag must force a miss instead.
func TestCacheInvalidatedWhenUnknownTermInterned(t *testing.T) {
	st := core.NewStore()
	st.Add(rdf.T("seed", "rel", "x")) // one fact: writeGen = 1
	c := New(st, Options{})
	ctx := context.Background()
	q := []core.Pattern{{S: core.PIRI("b"), P: core.PIRI("rel"), O: core.PVar("o")}}
	rows, _, err := c.Query(ctx, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("pre-intern rows = %d, want 0", len(rows))
	}
	st.Add(rdf.T("b", "rel", "y")) // interns "b" on a fresh stripe
	rows, cached, err := c.Query(ctx, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("stale empty entry survived the write that interned its subject")
	}
	if len(rows) != 1 {
		t.Errorf("post-intern rows = %d, want 1", len(rows))
	}
}

func TestCacheInvalidatedByRemove(t *testing.T) {
	st := fixture()
	c := New(st, Options{})
	ctx := context.Background()
	if _, _, err := c.Query(ctx, joinQuery(), 0); err != nil {
		t.Fatal(err)
	}
	st.Remove(rdf.T("gates", "founded", "microsoft"))
	rows, cached, err := c.Query(ctx, joinQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("entry survived a tombstone that changed its answer")
	}
	if len(rows) != 2 {
		t.Errorf("post-remove rows = %d, want 2", len(rows))
	}
}

func TestCacheLimitIsPartOfKey(t *testing.T) {
	st := fixture()
	c := New(st, Options{})
	ctx := context.Background()
	rows, _, err := c.Query(ctx, joinQuery(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("limit-1 rows = %d", len(rows))
	}
	rows, cached, err := c.Query(ctx, joinQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("limit-0 request hit the limit-1 entry")
	}
	if len(rows) != 3 {
		t.Errorf("unlimited rows = %d, want 3", len(rows))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	st := core.NewStore()
	for i := 0; i < 32; i++ {
		st.Add(rdf.T(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)))
	}
	c := New(st, Options{Shards: 1, PerShard: 4})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		q := []core.Pattern{{S: core.PIRI(fmt.Sprintf("s%d", i)), P: core.PIRI("p"), O: core.PVar("o")}}
		if _, _, err := c.Query(ctx, q, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 4 {
		t.Errorf("entries = %d, want shard cap 4", s.Entries)
	}
	if s.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", s.Evictions)
	}
	// The oldest queries were evicted; the newest still hit.
	q := []core.Pattern{{S: core.PIRI("s7"), P: core.PIRI("p"), O: core.PVar("o")}}
	if _, cached, _ := c.Query(ctx, q, 0); !cached {
		t.Error("most recent entry was evicted")
	}
	q = []core.Pattern{{S: core.PIRI("s0"), P: core.PIRI("p"), O: core.PVar("o")}}
	if _, cached, _ := c.Query(ctx, q, 0); cached {
		t.Error("least recent entry survived past capacity")
	}
}

// The shard a key lands on is a fixed function of the key, not of the
// process: two caches fed the same operations hold the same entries in
// the same LRU order and evict the same ones.
func TestCacheShardChoiceIsDeterministic(t *testing.T) {
	st := core.NewStore()
	for i := 0; i < 64; i++ {
		st.Add(rdf.T(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)))
	}
	entries := func(c *Cache) [][]string {
		out := make([][]string, len(c.lru.shards))
		for i := range c.lru.shards {
			for el := c.lru.shards[i].lru.Front(); el != nil; el = el.Next() {
				out[i] = append(out[i], el.Value.(*lruEntry[*entry]).key)
			}
		}
		return out
	}
	a, b := New(st, Options{Shards: 4, PerShard: 3}), New(st, Options{Shards: 4, PerShard: 3})
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		q := []core.Pattern{{S: core.PIRI(fmt.Sprintf("s%d", rng.Intn(64))), P: core.PIRI("p"), O: core.PVar("o")}}
		for _, c := range []*Cache{a, b} {
			if _, _, err := c.Query(ctx, q, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ea, eb := entries(a), entries(b); !reflect.DeepEqual(ea, eb) {
		t.Errorf("two caches, same operations, different entries:\n%q\n%q", ea, eb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb || sa.Evictions == 0 {
		t.Errorf("stats %+v and %+v: want equal, with evictions", sa, sb)
	}
}

// An LRU owner's validity predicate decides every hit: an entry that
// fails it is dropped and counted stale, never served.
func TestLRUValidatesEveryHit(t *testing.T) {
	var gen atomic.Uint64
	type stamped struct{ gen, val uint64 }
	l := NewLRU(Options{}, func(e stamped) bool { return e.gen == gen.Load() })
	l.Put("k", stamped{gen: gen.Load(), val: 7})
	if e, ok := l.Get("k"); !ok || e.val != 7 {
		t.Fatalf("fresh entry: %+v, %v", e, ok)
	}
	gen.Add(1)
	if _, ok := l.Get("k"); ok {
		t.Fatal("an entry from an older generation was served")
	}
	if s := l.Stats(); s.Hits != 1 || s.Misses != 1 || s.Stale != 1 || s.Entries != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheCancellationNotCached(t *testing.T) {
	st := fixture()
	c := New(st, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Query(ctx, joinQuery(), 0); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	// The failed evaluation must not have been cached.
	rows, cached, err := c.Query(context.Background(), joinQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("cancelled evaluation was cached")
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rows))
	}
}

// Concurrent queriers against one writer that keeps invalidating the
// cached entries mid-stream: every result set must be one the store could
// have held at some instant (here: row counts within the reachable range),
// and the run must be race-clean under -race.
func TestCacheConcurrentQueriersWithWriter(t *testing.T) {
	st := fixture()
	c := New(st, Options{Shards: 4, PerShard: 64})
	const queriers = 8
	const rounds = 300
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	// Writer: churn a (founder, company, city) chain in and out, bumping
	// generations that overlap the cached join's patterns.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			co := fmt.Sprintf("startup%d", i%7)
			st.Add(rdf.T("founder", "founded", co))
			st.Add(rdf.T(co, "locatedIn", "garage"))
			st.Remove(rdf.T("founder", "founded", co))
			st.Remove(rdf.T(co, "locatedIn", "garage"))
		}
	}()
	errs := make(chan error, queriers)
	var queryWG sync.WaitGroup
	for q := 0; q < queriers; q++ {
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				rows, _, err := c.Query(ctx, joinQuery(), 0)
				if err != nil {
					errs <- err
					return
				}
				// The fixture contributes exactly 3 stable rows; the
				// writer adds at most one transient chain.
				if len(rows) < 3 || len(rows) > 4 {
					errs <- fmt.Errorf("impossible row count %d", len(rows))
					return
				}
			}
		}()
	}
	queryWG.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if s := c.Stats(); s.Hits+s.Misses == 0 {
		t.Error("no cache traffic recorded")
	}
}
