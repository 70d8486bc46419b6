package main

// Fault-tolerance acceptance tests: the router over a replicated tier
// with faultkb proxies in front of each replica, proving that replica
// failures stay invisible to clients.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/experiments"
	"kbharvest/internal/faultkb"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

// startReplicatedTier partitions st across n shards with r replicas each,
// every replica behind its own faultkb proxy, and returns the router plus
// the injectors indexed [shard][replica].
func startReplicatedTier(t *testing.T, st *core.Store, n, r int, opt shardkb.Options) (*router, [][]*faultkb.Injector) {
	t.Helper()
	stores := make([]*core.Store, n)
	for i := range stores {
		stores[i] = core.NewStore()
	}
	for _, tr := range st.All() {
		stores[shardkb.TripleShard(tr, n)].Add(tr)
	}
	shards := make([]string, n)
	injectors := make([][]*faultkb.Injector, n)
	for i := 0; i < n; i++ {
		urls := make([]string, r)
		for j := 0; j < r; j++ {
			backend := httptest.NewServer(serve.NewServer(stores[i], serve.Options{Timeout: 2 * time.Second}))
			t.Cleanup(backend.Close)
			in := faultkb.New(int64(17*i + j))
			proxy := httptest.NewServer(faultkb.NewProxy(backend.URL, in, nil))
			t.Cleanup(proxy.Close)
			urls[j] = proxy.URL
			injectors[i] = append(injectors[i], in)
		}
		shards[i] = strings.Join(urls, "|")
	}
	if opt.Timeout == 0 {
		opt.Timeout = 2 * time.Second
	}
	client, err := shardkb.New(shards, opt)
	if err != nil {
		t.Fatal(err)
	}
	return newRouter(client, 10*time.Second), injectors
}

// The headline acceptance test: the full E9 serving suite runs against a
// 2-shard x 2-replica tier while one replica of every shard is killed
// mid-suite, and every query still answers 200 with the rows the merged
// store would produce. Run with -race in CI.
func TestRouterSurvivesReplicaKillMidSuite(t *testing.T) {
	merged, queries := experiments.ServingWorkload(119)
	rt, injectors := startReplicatedTier(t, merged, 2, 2, shardkb.Options{
		RetryBase: 2 * time.Millisecond, RetryMax: 20 * time.Millisecond,
	})

	// Precompute expected rows so worker goroutines only compare.
	type expect struct {
		body string
		want []string
	}
	expects := make([]expect, len(queries))
	for qi, q := range queries {
		lines := make([]string, len(q))
		for i, p := range q {
			lines[i] = shardkb.FormatPattern(p)
		}
		body, _ := json.Marshal(serve.QueryRequest{Patterns: lines})
		expects[qi] = expect{body: string(body), want: canonical(bindingsToRows(merged.Query(q)))}
	}

	const rounds = 8
	const workers = 4
	var wg sync.WaitGroup
	killed := make(chan struct{})
	errs := make(chan string, rounds*workers*len(expects))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if w == 0 && round == rounds/2 {
					// Kill replica 0 of every shard mid-suite: every request
					// to it is dropped from here on.
					for i := range injectors {
						injectors[i][0].SetPlan(faultkb.Plan{DropRate: 1})
					}
					close(killed)
				}
				for _, e := range expects {
					rec, resp := postRouterQuery(t, rt, e.body)
					if rec.Code != http.StatusOK {
						errs <- rec.Body.String()
						continue
					}
					got := canonical(resp.Rows)
					if len(got) != len(e.want) {
						errs <- "row count mismatch"
						continue
					}
					for i := range e.want {
						if got[i] != e.want[i] {
							errs <- "row mismatch"
							break
						}
					}
					if resp.Partial {
						errs <- "spurious partial flag"
					}
				}
			}
		}(w)
	}
	wg.Wait()
	<-killed // the kill must actually have happened
	close(errs)
	for e := range errs {
		t.Errorf("client-visible failure with one of 2 replicas down: %s", e)
	}
	stats := rt.client.Stats()
	if stats.Retries == 0 {
		t.Error("suite rode out a replica kill without a single retry — kill did not bite")
	}
}

// A dead replica must not make the router report unready: readiness is
// per shard group, satisfied by any live replica.
func TestRouterReadyzWithReplicaDown(t *testing.T) {
	rt, injectors := startReplicatedTier(t, smallStore(), 2, 2, shardkb.Options{})
	injectors[0][0].SetPlan(faultkb.Plan{DropRate: 1})
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d with a live replica per shard: %s", rec.Code, rec.Body.String())
	}

	// Both replicas of shard 1 down: the tier is not ready.
	for _, in := range injectors[1] {
		in.SetPlan(faultkb.Plan{DropRate: 1})
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with a whole shard down, want 503", rec.Code)
	}
}

// Draining flips /readyz to 503 while /query keeps answering — the
// ready-to-draining transition a rolling restart depends on.
func TestRouterDrainingReadyz(t *testing.T) {
	rt, _ := startReplicatedTier(t, smallStore(), 1, 1, shardkb.Options{})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d before drain, want 200: %s", rec.Code, rec.Body.String())
	}
	rt.SetDraining(true)
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d while draining, want 503", rec.Code)
	}
	var rr routerReady
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rr.Error != "draining" {
		t.Fatalf("draining readyz body = %q, %v", rec.Body.String(), err)
	}
	// Queries in flight keep working during the drain notice window.
	rec2, resp := postRouterQuery(t, rt, `{"patterns": ["kb:jobs kb:founded ?c"]}`)
	if rec2.Code != http.StatusOK || resp.Count != 1 {
		t.Fatalf("query during drain = %d, count %d; want 200, 1", rec2.Code, resp.Count)
	}
	rt.SetDraining(false)
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d after drain cleared, want 200", rec.Code)
	}
}
