package qcache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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

// A query naming a term the dictionary has never interned has an empty
// answer, and that answer is cached like any other. The write that then
// interns the term, and gives the query a match, must force a miss: an
// answer computed before a term existed is not served after it does.
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
	st.Add(rdf.T("b", "rel", "y")) // interns "b", unknown when the entry was filled
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
				out[i] = append(out[i], el.Value.(*lruEntry[[]core.Binding]).key)
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

// An LRU owner's generation decides every hit: an entry stored at an
// older generation is dropped and counted stale, never served.
func TestLRUValidatesEveryHit(t *testing.T) {
	var gen atomic.Uint64
	l := NewLRU[uint64](Options{}, gen.Load)
	l.Put("k", gen.Load(), 7)
	if v, ok := l.Get("k"); !ok || v != 7 {
		t.Fatalf("fresh entry: %v, %v", v, ok)
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

// Concurrent queriers against one writer that adds a bounded number of
// (founder, company, city) chains, each invalidating the cached join
// mid-stream. Every answer holds at least the chains complete before the
// request and at most those begun by its end, no querier ever sees fewer
// rows than it saw before, and the run must be race-clean under -race.
func TestCacheConcurrentQueriersWithWriter(t *testing.T) {
	st := fixture()
	c := New(st, Options{Shards: 4, PerShard: 64})
	const queriers = 8
	const rounds = 300
	const chains = 300
	// The fixture contributes 3 rows; each chain adds one once both of
	// its facts are in.
	var begun, done atomic.Int64
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < chains; i++ {
			co := fmt.Sprintf("startup%d", i)
			begun.Add(1)
			st.Add(rdf.T("founder", "founded", co))
			st.Add(rdf.T(co, "locatedIn", "garage"))
			done.Add(1)
			runtime.Gosched()
		}
	}()
	errs := make(chan error, queriers)
	var queryWG sync.WaitGroup
	for q := 0; q < queriers; q++ {
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			ctx := context.Background()
			last := 0
			for r := 0; r < rounds; r++ {
				lo := 3 + int(done.Load())
				rows, _, err := c.Query(ctx, joinQuery(), 0)
				if err != nil {
					errs <- err
					return
				}
				hi := 3 + int(begun.Load())
				if n := len(rows); n < lo || n > hi || n < last {
					errs <- fmt.Errorf("round %d: %d rows, want %d..%d and at least the %d seen before", r, n, lo, hi, last)
					return
				}
				last = len(rows)
			}
		}()
	}
	queryWG.Wait()
	writerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if rows, _, err := c.Query(context.Background(), joinQuery(), 0); err != nil || len(rows) != 3+chains {
		t.Errorf("after the writes: %d rows (%v), want %d", len(rows), err, 3+chains)
	}
	if s := c.Stats(); s.Hits+s.Misses == 0 {
		t.Error("no cache traffic recorded")
	}
}

// Two queries that differ only in where a 0x1f sits relative to a '?'
// once rendered the same key, so the second was answered from the first's
// entry.
func TestKeySeparatesShiftedVariableNames(t *testing.T) {
	a, err := core.ParsePattern("?x\x1f?y ?z ?w")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.ParsePattern("?x ?y\x1f?z ?w")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("%+v and %+v parse equal", a, b)
	}
	if Key([]core.Pattern{a}, 0) == Key([]core.Pattern{b}, 0) {
		t.Errorf("%+v and %+v share a key", a, b)
	}
}

// Equal keys if and only if equal patterns and limit, over queries whose
// names and values are drawn from small pools of the bytes that once
// delimited a key (0x1e, 0x1f), '?', '#' and digits — small enough that
// equal queries recur, and holding names that are shifts of each other.
func TestKeyIsInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"x", "y", "z", "1", "x\x1f?y", "y\x1f?z", "\x1e", "?", "1\x1e?x", "#1"}
	values := []string{"", "x", "\x1f", "\x1e?x", "1", "?y\x1f", "#"}
	tags := []string{"en", "1", "\x1f?"}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	term := func() core.PatternTerm {
		switch rng.Intn(7) {
		case 0, 1, 2:
			return core.PVar(pick(names))
		case 3:
			return core.PTerm(rdf.NewIRI(pick(values)))
		case 4:
			return core.PTerm(rdf.NewLiteral(pick(values)))
		case 5:
			if rng.Intn(2) == 0 {
				return core.PTerm(rdf.NewLangLiteral(pick(values), pick(tags)))
			}
			return core.PTerm(rdf.NewTypedLiteral(pick(values), pick(tags)))
		}
		return core.PTerm(rdf.NewBlank(pick(values)))
	}
	type query struct {
		pats  []core.Pattern
		limit int
	}
	const n = 30000
	byKey := map[string]query{}
	byQuery := map[string]string{} // %#v of the query -> its key
	for i := 0; i < n; i++ {
		q := query{pats: make([]core.Pattern, 1+rng.Intn(4)/3), limit: rng.Intn(4) - 1}
		for j := range q.pats {
			q.pats[j] = core.Pattern{S: term(), P: term(), O: term()}
		}
		key := Key(q.pats, q.limit)
		q.limit = max(q.limit, 0) // every limit <= 0 means all rows
		id := fmt.Sprintf("%#v", q)
		if prev, ok := byKey[key]; ok && fmt.Sprintf("%#v", prev) != id {
			t.Fatalf("key %q is shared by %#v and %#v", key, prev, q)
		}
		if prev, ok := byQuery[id]; ok && prev != key {
			t.Fatalf("%s has two keys, %q and %q", id, prev, key)
		}
		byKey[key], byQuery[id] = q, key
	}
	if len(byKey) > n*19/20 {
		t.Errorf("%d of %d queries distinct: too few recur to test that equal queries share a key", len(byKey), n)
	}
}
