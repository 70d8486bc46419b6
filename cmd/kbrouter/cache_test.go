package main

// The router's result cache against the shard epochs that validate it: a
// repeated query is answered without a shard RPC, a reply or /readyz that
// shows a shard's new epoch makes every earlier entry stale, and nothing
// but the full answer is ever cached.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

const foundedScan = `{"patterns": ["?p kb:founded ?c"]}`

// readyz asks the router's /readyz, which reaches every shard.
func readyz(t *testing.T, rt http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: status %d: %s", rec.Code, rec.Body.String())
	}
}

// A write to a shard's store, or a new process behind its URL, is seen by
// the router on the next reply or /readyz that reaches that shard; until
// then a hit is as fresh as the last reply the shard gave, and from then
// on the query is answered afresh.
func TestRouterCacheFollowsShardEpochs(t *testing.T) {
	const n = 2
	rt, stores, swaps := startTier(t, smallStore(), n, shardkb.Options{})
	if resp := mustQuery(t, rt, foundedScan); resp.Cached || resp.Count != 3 {
		t.Fatalf("first scan: cached %v, count %d", resp.Cached, resp.Count)
	}
	rpcs := rt.client.Stats().RPCs
	if resp := mustQuery(t, rt, foundedScan); !resp.Cached || resp.Count != 3 || resp.Partial {
		t.Fatalf("repeat: cached %v, count %d, partial %v", resp.Cached, resp.Count, resp.Partial)
	}
	if got := rt.client.Stats().RPCs; got != rpcs {
		t.Errorf("a cache hit issued %d RPCs", got-rpcs)
	}

	// A write: the entry stands until a reply from that shard shows it.
	ive := rdf.T("kb:ive", "kb:founded", "kb:apple")
	stores[shardkb.TripleShard(ive, n)].Add(ive)
	if resp := mustQuery(t, rt, foundedScan); !resp.Cached || resp.Count != 3 {
		t.Fatalf("before the written shard answered again: cached %v, count %d", resp.Cached, resp.Count)
	}
	mustQuery(t, rt, `{"patterns": ["kb:ive ?r ?o"]}`) // pinned to that shard
	if resp := mustQuery(t, rt, foundedScan); resp.Cached || resp.Count != 4 {
		t.Fatalf("after a reply showed the write: cached %v, count %d, want a fresh 4", resp.Cached, resp.Count)
	}

	// A new process over a different store behind the same URL, reached
	// by the router's /readyz.
	gates := rdf.T("kb:gates", "kb:founded", "kb:microsoft")
	g := shardkb.TripleShard(gates, n)
	fresh := core.NewStore()
	for _, tr := range stores[g].All() {
		if tr != gates {
			fresh.Add(tr)
		}
	}
	swaps[g].set(serve.NewServer(fresh, serve.Options{Timeout: 2 * time.Second}))
	if resp := mustQuery(t, rt, foundedScan); !resp.Cached || resp.Count != 4 {
		t.Fatalf("before the new process answered: cached %v, count %d", resp.Cached, resp.Count)
	}
	readyz(t, rt)
	if resp := mustQuery(t, rt, foundedScan); resp.Cached || resp.Count != 3 {
		t.Fatalf("after /readyz reached the new process: cached %v, count %d, want a fresh 3", resp.Cached, resp.Count)
	}
	if c := getStatsz(t, rt).Cache; c.Stale != 2 || c.Hits != 3 {
		t.Errorf("cache stats = %+v, want 2 stale entries and 3 hits", c)
	}
}

// stripEpoch drops the epoch header from a reply, as a proxy that does
// not forward it would.
type stripEpoch struct{ http.ResponseWriter }

func (w stripEpoch) WriteHeader(code int) {
	w.Header().Del(serve.EpochHeader)
	w.ResponseWriter.WriteHeader(code)
}

func (w stripEpoch) Write(b []byte) (int, error) {
	w.Header().Del(serve.EpochHeader)
	return w.ResponseWriter.Write(b)
}

// A shard that states no epoch gives the router nothing to validate
// against: every reply from it is an epoch change, so a query that
// reaches it is never answered from the cache.
func TestRouterNeverCachesWithoutEpoch(t *testing.T) {
	rt, _, swaps := startTier(t, smallStore(), 2, shardkb.Options{})
	inner := swaps[0].get()
	swaps[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(stripEpoch{w}, r)
	}))
	for i := 0; i < 3; i++ {
		if resp := mustQuery(t, rt, foundedScan); resp.Cached || resp.Count != 3 {
			t.Fatalf("query %d: cached %v, count %d", i, resp.Cached, resp.Count)
		}
	}
	if c := getStatsz(t, rt).Cache; c.Hits != 0 {
		t.Errorf("cache stats = %+v, want no hit", c)
	}
}

// Only the full answer is cached. A partial reply (-allow-partial with a
// shard down), a 500 (a shard down without it) and a 504 (the router's
// deadline) leave nothing behind: once the shard is back, the same query
// is answered in full, fresh, and then from the cache.
func TestRouterCachesOnlyFullAnswers(t *testing.T) {
	down := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: "down"})
	})
	hang := http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		// Until the router gives up: with the body read, the server sees
		// the closed connection and cancels the request's context.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	for _, tc := range []struct {
		name         string
		allowPartial bool
		timeout      time.Duration
		fault        http.Handler
		status       int
	}{
		{"partial", true, 10 * time.Second, down, http.StatusOK},
		{"error", false, 10 * time.Second, down, http.StatusInternalServerError},
		{"deadline", false, 50 * time.Millisecond, hang, http.StatusGatewayTimeout},
	} {
		rt, _, swaps := startTier(t, smallStore(), 2, shardkb.Options{
			AllowPartial: tc.allowPartial, RetryBase: time.Millisecond, RetryMax: time.Millisecond,
		})
		rt.timeout = tc.timeout
		live := swaps[1].get()
		swaps[1].set(tc.fault)
		for i := 0; i < 2; i++ {
			rec, resp := postRouterQuery(t, rt, foundedScan)
			if rec.Code != tc.status || resp.Cached || resp.Partial != (tc.status == http.StatusOK) {
				t.Fatalf("%s, query %d: status %d, cached %v, partial %v; want %d, not cached: %s",
					tc.name, i, rec.Code, resp.Cached, resp.Partial, tc.status, rec.Body.String())
			}
		}
		swaps[1].set(live)
		if resp := mustQuery(t, rt, foundedScan); resp.Cached || resp.Partial || resp.Count != 3 {
			t.Errorf("%s, shard back: cached %v, partial %v, count %d; want the full 3, fresh", tc.name, resp.Cached, resp.Partial, resp.Count)
		}
		if resp := mustQuery(t, rt, foundedScan); !resp.Cached || resp.Count != 3 {
			t.Errorf("%s, repeated: cached %v, count %d", tc.name, resp.Cached, resp.Count)
		}
	}
}

// Concurrent hits while shard epochs flip (run under -race in CI): a
// writer adds a bounded number of (founder, company, city) chains across
// the shards. A hit is as fresh as the last reply each shard gave, so an
// answer may lag the writes; but every answer lies between the tier's
// state before the writes and the chains begun by its end, and none is
// partial. Once the writes stop and /readyz has reached every shard,
// every query answers the final state.
func TestRouterCacheConcurrentEpochFlips(t *testing.T) {
	const n = 2
	const chains = 40
	rt, stores, _ := startTier(t, smallStore(), n, shardkb.Options{})
	queries := []struct {
		body     string
		min      int
		perChain int // rows each chain adds once both its facts are in
	}{
		{`{"patterns": ["kb:jobs kb:founded ?c"]}`, 1, 0},
		{foundedScan, 3, 1},
		{`{"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"]}`, 3, 1},
	}
	var begun atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < chains; i++ {
			co := fmt.Sprintf("kb:startup%d", i)
			begun.Add(1)
			for _, tr := range []rdf.Triple{rdf.T("kb:founder", "kb:founded", co), rdf.T(co, "kb:locatedIn", "kb:garage")} {
				stores[shardkb.TripleShard(tr, n)].Add(tr)
			}
			runtime.Gosched()
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				if (g+i)%10 == 0 {
					rt.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/readyz", nil))
				}
				q := queries[(g+i)%len(queries)]
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q.body)))
				var resp serve.QueryResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					errs <- fmt.Errorf("%s: status %d: %s", q.body, rec.Code, rec.Body.String())
					return
				}
				max := q.min + q.perChain*int(begun.Load())
				if resp.Partial || resp.Count < q.min || resp.Count > max {
					errs <- fmt.Errorf("%s: count %d (partial %v), want %d..%d", q.body, resp.Count, resp.Partial, q.min, max)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	writer.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	readyz(t, rt)
	for _, q := range queries {
		want := q.min + q.perChain*chains
		if resp := mustQuery(t, rt, q.body); resp.Count != want {
			t.Errorf("%s after the writes: count %d, want %d", q.body, resp.Count, want)
		}
	}
}

// Two queries whose cache keys once coincided: the second is answered
// afresh, with its own variables and the merged store's rows.
func TestRouterShiftedVariableNamesAreDistinctQueries(t *testing.T) {
	st := smallStore()
	rt, _, _ := startTier(t, st, 2, shardkb.Options{})
	for _, line := range []string{"?x\x1f?y ?z ?w", "?x ?y\x1f?z ?w"} {
		body, err := json.Marshal(serve.QueryRequest{Patterns: []string{line}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.ParsePattern(line)
		if err != nil {
			t.Fatal(err)
		}
		resp := mustQuery(t, rt, string(body))
		want := bindingsToRows(st.Query([]core.Pattern{p}))
		if resp.Cached || fmt.Sprint(canonical(resp.Rows)) != fmt.Sprint(canonical(want)) {
			t.Errorf("%q: cached %v, rows %v, want %v", line, resp.Cached, canonical(resp.Rows), canonical(want))
		}
	}
}
