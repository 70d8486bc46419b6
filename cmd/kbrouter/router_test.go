package main

import (
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

// startTier partitions the store across n in-process kbserve shards and
// returns a router over them plus the shard URLs (for failure injection).
func startTier(t *testing.T, st *core.Store, n int, opt shardkb.Options) (*router, []string) {
	t.Helper()
	stores := make([]*core.Store, n)
	for i := range stores {
		stores[i] = core.NewStore()
	}
	for _, tr := range st.All() {
		stores[shardkb.TripleShard(tr, n)].Add(tr)
	}
	urls := make([]string, n)
	for i := range stores {
		srv := httptest.NewServer(serve.NewServer(stores[i], serve.Options{Timeout: 2 * time.Second}))
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
	return newRouter(client, 10*time.Second), urls
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
		rt, _ := startTier(t, merged, n, shardkb.Options{})
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

func TestRouterPointLookupIsSingleRPC(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		rt, _ := startTier(t, smallStore(), n, shardkb.Options{})
		rec, resp := postRouterQuery(t, rt, `{"patterns": ["kb:jobs kb:founded ?c"]}`)
		if rec.Code != http.StatusOK || resp.Count != 1 {
			t.Fatalf("n=%d: status %d count %d", n, rec.Code, resp.Count)
		}
		if resp.Rows[0]["c"] != "<kb:apple>" {
			t.Errorf("n=%d: c = %q", n, resp.Rows[0]["c"])
		}
		srec := httptest.NewRecorder()
		rt.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
		var stats routerStatsz
		if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Client.RPCs != 1 || stats.Client.FastPath != 1 || stats.Client.Scatters != 0 {
			t.Errorf("n=%d: point lookup issued %d RPCs (fastpath %d, scatters %d), want exactly 1 RPC",
				n, stats.Client.RPCs, stats.Client.FastPath, stats.Client.Scatters)
		}
		if stats.FastPathRate != 1 {
			t.Errorf("n=%d: fast-path rate = %v", n, stats.FastPathRate)
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
	rt, _ := startTier(t, st, n, shardkb.Options{})
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
	rt, _ := startTier(t, smallStore(), 2, shardkb.Options{})
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
	rt, _ := startTier(t, smallStore(), 2, shardkb.Options{})
	rec, resp := postRouterQuery(t, rt, `{"patterns": ["?p kb:founded ?c"], "limit": 2}`)
	if rec.Code != http.StatusOK || resp.Count != 2 {
		t.Errorf("status %d count %d, want 2", rec.Code, resp.Count)
	}
}

func TestRouterBadRequest(t *testing.T) {
	rt, _ := startTier(t, smallStore(), 2, shardkb.Options{})
	rec, _ := postRouterQuery(t, rt, `{"patterns": []}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
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
	stores := make([]*core.Store, 4)
	for i := range stores {
		stores[i] = core.NewStore()
	}
	for _, tr := range st.All() {
		stores[shardkb.TripleShard(tr, 4)].Add(tr)
	}
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
	srec := httptest.NewRecorder()
	lax.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var stats routerStatsz
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PartialAnswers != 1 || stats.Client.PartialFailures == 0 {
		t.Errorf("partial stats = %+v", stats)
	}
}

func TestRouterReadyz(t *testing.T) {
	rt, _ := startTier(t, smallStore(), 2, shardkb.Options{})
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
	rt, _ := startTier(t, smallStore(), 4, shardkb.Options{})
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
