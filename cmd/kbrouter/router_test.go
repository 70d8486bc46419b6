package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/experiments"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

// partition splits st by subject hash the way kbbuild -shards does.
func partition(st *core.Store, n int) []*core.Store {
	stores := make([]*core.Store, n)
	for i := range stores {
		stores[i] = core.NewStore()
	}
	for _, tr := range st.All() {
		stores[shardkb.TripleShard(tr, n)].Add(tr)
	}
	return stores
}

// swappable is a handler a test replaces behind one URL, the way a
// restarted process comes back at the same address.
type swappable struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappable) get() http.Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}

func (s *swappable) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.get().ServeHTTP(w, r) }

// startTier partitions the store across n in-process kbserve shards, each
// behind a swappable handler, and returns a router over them that has
// probed the tier's readiness the way kbrouter does at startup, plus the
// shard stores and handlers.
func startTier(t *testing.T, st *core.Store, n int, opt shardkb.Options) (*router, []*core.Store, []*swappable) {
	t.Helper()
	stores := partition(st, n)
	urls := make([]string, n)
	swaps := make([]*swappable, n)
	for i := range stores {
		swaps[i] = &swappable{h: serve.NewServer(stores[i], serve.Options{Timeout: 2 * time.Second})}
		srv := httptest.NewServer(swaps[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	if opt.Timeout == 0 {
		opt.Timeout = 2 * time.Second
	}
	client, err := shardkb.New(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	// As at startup, an unready shard (one with no facts) is no error.
	client.Ready(context.Background())
	return newRouter(client, 10*time.Second), stores, swaps
}

// mustQuery posts a /query body and fails the test unless it answers 200.
func mustQuery(t *testing.T, rt http.Handler, body string) serve.QueryResponse {
	t.Helper()
	rec, resp := postRouterQuery(t, rt, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
	}
	return resp
}

// getStatsz reads the router's /statsz.
func getStatsz(t *testing.T, rt http.Handler) routerStatsz {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var stats routerStatsz
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("statsz %q: %v", rec.Body.String(), err)
	}
	return stats
}

func smallStore() *core.Store {
	st := core.NewStore()
	st.Add(rdf.T("kb:jobs", "kb:founded", "kb:apple"))
	st.Add(rdf.T("kb:wozniak", "kb:founded", "kb:apple"))
	st.Add(rdf.T("kb:gates", "kb:founded", "kb:microsoft"))
	st.Add(rdf.T("kb:apple", "kb:locatedIn", "kb:cupertino"))
	st.Add(rdf.T("kb:microsoft", "kb:locatedIn", "kb:redmond"))
	return st
}

func postRouterQuery(t *testing.T, rt http.Handler, body string) (*httptest.ResponseRecorder, serve.QueryResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	var resp serve.QueryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

// canonical renders a binding set as sorted strings for set comparison.
func canonical(rows []map[string]string) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		var keys []string
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, k+"="+row[k])
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

func bindingsToRows(bs []core.Binding) []map[string]string {
	rows := make([]map[string]string, len(bs))
	for i, b := range bs {
		row := make(map[string]string, len(b))
		for v, t := range b {
			row[string(v)] = t.String()
		}
		rows[i] = row
	}
	return rows
}

// The acceptance cross-check: every multi-pattern query of the E9
// serving suite must come back from the sharded tier identical to the
// single merged store, at every shard count.
func TestRouterMatchesMergedStoreOnServingSuite(t *testing.T) {
	merged, queries := experiments.ServingWorkload(119)
	for _, n := range []int{1, 2, 4} {
		rt, _, _ := startTier(t, merged, n, shardkb.Options{})
		for qi, q := range queries {
			lines := make([]string, len(q))
			for i, p := range q {
				lines[i] = shardkb.FormatPattern(p)
			}
			body, _ := json.Marshal(serve.QueryRequest{Patterns: lines})
			rec, resp := postRouterQuery(t, rt, string(body))
			if rec.Code != http.StatusOK {
				t.Fatalf("n=%d q=%d: status %d: %s", n, qi, rec.Code, rec.Body.String())
			}
			want := canonical(bindingsToRows(merged.Query(q)))
			got := canonical(resp.Rows)
			if len(got) != len(want) {
				t.Fatalf("n=%d q=%d: %d rows, merged store has %d", n, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d: row %d differs:\n  got  %s\n  want %s", n, qi, i, got[i], want[i])
				}
			}
			if resp.Partial {
				t.Errorf("n=%d q=%d: spurious partial flag", n, qi)
			}
		}
	}
}

// A point lookup costs one RPC at any shard count, and repeating it costs
// none: the router answers "cached": true from its own cache.
func TestRouterPointLookupIsSingleRPC(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		rt, _, _ := startTier(t, smallStore(), n, shardkb.Options{})
		rec, resp := postRouterQuery(t, rt, `{"patterns": ["kb:jobs kb:founded ?c"]}`)
		if rec.Code != http.StatusOK || resp.Count != 1 || resp.Cached {
			t.Fatalf("n=%d: status %d count %d cached %v", n, rec.Code, resp.Count, resp.Cached)
		}
		if resp.Rows[0]["c"] != "<kb:apple>" {
			t.Errorf("n=%d: c = %q", n, resp.Rows[0]["c"])
		}
		stats := getStatsz(t, rt)
		if stats.Client.RPCs != 1 || stats.Client.FastPath != 1 || stats.Client.Scatters != 0 {
			t.Errorf("n=%d: point lookup issued %d RPCs (fastpath %d, scatters %d), want exactly 1 RPC",
				n, stats.Client.RPCs, stats.Client.FastPath, stats.Client.Scatters)
		}
		if stats.FastPathRate != 1 {
			t.Errorf("n=%d: fast-path rate = %v", n, stats.FastPathRate)
		}
		again := mustQuery(t, rt, `{"patterns": ["kb:jobs kb:founded ?c"]}`)
		if !again.Cached || again.Count != 1 || again.Rows[0]["c"] != "<kb:apple>" {
			t.Errorf("n=%d: repeat = %+v, want the same row, cached", n, again)
		}
		stats = getStatsz(t, rt)
		if stats.Client.RPCs != 1 {
			t.Errorf("n=%d: the repeat issued %d RPCs, want 0", n, stats.Client.RPCs-1)
		}
		if c := stats.Cache; c.Hits != 1 || c.Misses != 1 || c.Entries != 1 || c.HitRate != 0.5 {
			t.Errorf("n=%d: cache stats = %+v", n, c)
		}
	}
}

// A join step sends its bindings in one batch: after ?c binds, "?c
// kb:hasCEO ?ceo" is one bind step whose rows go only to the shards owning
// them — one RPC per owner shard, not one per binding.
func TestRouterJoinBatchesBindingsPerShard(t *testing.T) {
	st := smallStore()
	st.Add(rdf.T("kb:apple", "kb:hasCEO", "kb:cook"))
	st.Add(rdf.T("kb:microsoft", "kb:hasCEO", "kb:nadella"))
	const n = 4
	rt, _, _ := startTier(t, st, n, shardkb.Options{})
	rec, resp := postRouterQuery(t, rt,
		`{"patterns": ["?c kb:locatedIn ?city", "?c kb:hasCEO ?ceo"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Count != 2 {
		t.Fatalf("count = %d, want 2", resp.Count)
	}
	stats := rt.client.Stats()
	// One scatter for whichever pattern runs first, then one owner-routed
	// step for the other, however many companies are bound.
	if stats.Scatters != 1 || stats.FastPath != 1 {
		t.Errorf("scatters = %d, owner-routed steps = %d; want 1 and 1", stats.Scatters, stats.FastPath)
	}
	owners := map[int]bool{}
	for _, c := range []string{"kb:apple", "kb:microsoft"} {
		owners[shardkb.ShardOf(rdf.NewIRI(c), n)] = true
	}
	// The /estimate round, the scatter, and the second step's owners.
	if want := uint64(n + n + len(owners)); stats.RPCs != want {
		t.Errorf("RPCs = %d, want %d", stats.RPCs, want)
	}
}

func TestRouterAsk(t *testing.T) {
	rt, _, _ := startTier(t, smallStore(), 2, shardkb.Options{})
	rec, resp := postRouterQuery(t, rt,
		`{"patterns": ["kb:jobs kb:founded kb:apple", "kb:apple kb:locatedIn kb:cupertino"]}`)
	if rec.Code != http.StatusOK || resp.Ask == nil || !*resp.Ask {
		t.Fatalf("status %d ask %v", rec.Code, resp.Ask)
	}
	_, resp = postRouterQuery(t, rt,
		`{"patterns": ["kb:jobs kb:founded kb:apple", "kb:apple kb:locatedIn kb:redmond"]}`)
	if resp.Ask == nil || *resp.Ask {
		t.Errorf("ask = %v, want false", resp.Ask)
	}
}

func TestRouterLimit(t *testing.T) {
	rt, _, _ := startTier(t, smallStore(), 2, shardkb.Options{})
	rec, resp := postRouterQuery(t, rt, `{"patterns": ["?p kb:founded ?c"], "limit": 2}`)
	if rec.Code != http.StatusOK || resp.Count != 2 {
		t.Errorf("status %d count %d, want 2", rec.Code, resp.Count)
	}
}

// The router shares kbserve's strict envelope: no patterns, a misspelt
// field or a second JSON value is a 400, never a query answered without
// it.
func TestRouterBadRequest(t *testing.T) {
	rt, _, _ := startTier(t, smallStore(), 2, shardkb.Options{})
	for _, body := range []string{
		`{"patterns": []}`,
		`{"patterns": ["?p kb:founded ?c"], "limt": 1}`,
		`{"patterns": ["?p kb:founded ?c"]} {"patterns": ["?p kb:founded ?c"], "limit": 1}`,
	} {
		if rec, _ := postRouterQuery(t, rt, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, rec.Code)
		}
	}
}

// killShard swaps one shard URL for a closed server.
func killShard(t *testing.T, urls []string, i int) {
	t.Helper()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	urls[i] = dead.URL
}

func TestRouterPartialFailurePolicies(t *testing.T) {
	st := smallStore()
	// Default policy: a scatter with a dead shard fails the query.
	stores := partition(st, 4)
	urls := make([]string, 4)
	for i := range stores {
		srv := httptest.NewServer(serve.NewServer(stores[i], serve.Options{Timeout: time.Second}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	const dead = 1
	killShard(t, urls, dead)

	strictClient, _ := shardkb.New(urls, shardkb.Options{Timeout: 500 * time.Millisecond})
	strict := newRouter(strictClient, 5*time.Second)
	rec, _ := postRouterQuery(t, strict, `{"patterns": ["?p kb:founded ?c"]}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("strict status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "partial") {
		t.Errorf("strict error does not name the partial failure: %s", rec.Body.String())
	}

	// -allow-partial: merged available results, flagged in the response.
	laxClient, _ := shardkb.New(urls, shardkb.Options{Timeout: 500 * time.Millisecond, AllowPartial: true})
	lax := newRouter(laxClient, 5*time.Second)
	rec, resp := postRouterQuery(t, lax, `{"patterns": ["?p kb:founded ?c"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("lax status = %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Partial {
		t.Error("lax response not flagged partial")
	}
	want := 0
	for _, tr := range st.All() {
		if tr.P.Value == "kb:founded" && shardkb.TripleShard(tr, 4) != dead {
			want++
		}
	}
	if resp.Count != want {
		t.Errorf("lax count = %d, want %d (live shards only)", resp.Count, want)
	}
	if stats := getStatsz(t, lax); stats.PartialAnswers != 1 || stats.Client.PartialFailures == 0 {
		t.Errorf("partial stats = %+v", stats)
	}
}

func TestRouterReadyz(t *testing.T) {
	rt, _, _ := startTier(t, smallStore(), 2, shardkb.Options{})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz status %d: %s", rec.Code, rec.Body.String())
	}
	var ready routerReady
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Shards != 2 || ready.Facts != 5 {
		t.Errorf("readyz = %+v", ready)
	}

	// One empty shard makes the whole tier not ready.
	emptySrv := httptest.NewServer(serve.NewServer(core.NewStore(), serve.Options{}))
	t.Cleanup(emptySrv.Close)
	liveSrv := httptest.NewServer(serve.NewServer(smallStore(), serve.Options{}))
	t.Cleanup(liveSrv.Close)
	client, _ := shardkb.New([]string{liveSrv.URL, emptySrv.URL}, shardkb.Options{Timeout: time.Second})
	rt2 := newRouter(client, time.Second)
	rec = httptest.NewRecorder()
	rt2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("not-ready tier status = %d, want 503", rec.Code)
	}
}

// Concurrent mixed traffic through the router must be race-clean and
// always answer from a consistent partition (run under -race in CI).
func TestRouterConcurrent(t *testing.T) {
	rt, _, _ := startTier(t, smallStore(), 4, shardkb.Options{})
	queries := []struct {
		body string
		want int
	}{
		{`{"patterns": ["kb:jobs kb:founded ?c"]}`, 1},
		{`{"patterns": ["?p kb:founded ?c"]}`, 3},
		{`{"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"]}`, 3},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(g+i)%len(queries)]
				req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q.body))
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var resp serve.QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				if resp.Count != q.want {
					errs <- fmt.Errorf("query %s: count %d, want %d", q.body, resp.Count, q.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
