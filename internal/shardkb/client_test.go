package shardkb

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
)

func testTriples() []rdf.Triple {
	return []rdf.Triple{
		rdf.T("kb:jobs", "kb:founded", "kb:apple"),
		rdf.T("kb:jobs", "kb:bornIn", "kb:sf"),
		rdf.T("kb:wozniak", "kb:founded", "kb:apple"),
		rdf.T("kb:gates", "kb:founded", "kb:microsoft"),
		rdf.T("kb:apple", "kb:locatedIn", "kb:cupertino"),
		rdf.T("kb:microsoft", "kb:locatedIn", "kb:redmond"),
	}
}

// startShards partitions triples across n in-process kbserve instances by
// the package shard function and returns their base URLs plus a per-shard
// request counter.
func startShards(t *testing.T, triples []rdf.Triple, n int) ([]string, []*atomic.Uint64) {
	t.Helper()
	stores := make([]*core.Store, n)
	for i := range stores {
		stores[i] = core.NewStore()
	}
	for _, tr := range triples {
		stores[TripleShard(tr, n)].Add(tr)
	}
	urls := make([]string, n)
	counters := make([]*atomic.Uint64, n)
	for i := range stores {
		h := serve.NewServer(stores[i], serve.Options{Timeout: time.Second})
		ctr := &atomic.Uint64{}
		counters[i] = ctr
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctr.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls, counters
}

func mustClient(t *testing.T, urls []string, opt Options) *Client {
	t.Helper()
	c, err := New(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// New takes the tier as one string per shard, replicas joined by "|" —
// the pieces of kbrouter's comma-separated -shards flag. A shard that
// names no replica is an error rather than skipped: skipping it would
// renumber every partition after it.
func TestNewParsesTier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards []string
		want   [][]string // nil: New must fail
	}{
		{"flat URLs", []string{"http://a", "http://b"}, [][]string{{"http://a"}, {"http://b"}}},
		{"replica groups", []string{"http://a|http://b", "http://c"}, [][]string{{"http://a", "http://b"}, {"http://c"}}},
		{"surrounding whitespace", strings.Split("http://a | http://b, http://c ", ","), [][]string{{"http://a", "http://b"}, {"http://c"}}},
		{"trailing slash", []string{"http://a/|http://b//"}, [][]string{{"http://a", "http://b"}}},
		{"empty replica", []string{"http://a||http://b|"}, [][]string{{"http://a", "http://b"}}},
		{"empty shard", []string{"http://a", "", "http://b"}, nil},
		{"empty flag", strings.Split("", ","), nil},
		{"only a comma", strings.Split(",", ","), nil},
		{"shard of empty replicas", strings.Split("|,http://a", ","), nil},
		{"zero shards", nil, nil},
	} {
		c, err := New(tc.shards, Options{})
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: New(%q) succeeded, want error", tc.name, tc.shards)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: New(%q): %v", tc.name, tc.shards, err)
			continue
		}
		var got [][]string
		for _, ss := range c.Stats().Shards {
			var urls []string
			for _, r := range ss.Replicas {
				urls = append(urls, r.URL)
			}
			got = append(got, urls)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: New(%q) tier = %q, want %q", tc.name, tc.shards, got, tc.want)
		}
	}
}

func TestShardOfDeterministicAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			term := rdf.NewIRI(fmt.Sprintf("kb:e%d", i))
			s := ShardOf(term, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%v, %d) = %d out of range", term, n, s)
			}
			if s != ShardOf(term, n) {
				t.Fatal("ShardOf not deterministic")
			}
			seen[s] = true
		}
		if n > 1 && len(seen) < 2 {
			t.Errorf("n=%d: all 200 terms landed on one shard", n)
		}
	}
	if ShardOf(rdf.NewIRI("anything"), 1) != 0 {
		t.Error("n=1 must always be shard 0")
	}
}

func TestPatternShardPinsSubjectConstants(t *testing.T) {
	p, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	shard, ok := PatternShard(p, 4)
	if !ok {
		t.Fatal("subject-constant pattern not pinned")
	}
	if want := ShardOf(rdf.NewIRI("kb:jobs"), 4); shard != want {
		t.Errorf("pinned to %d, want %d", shard, want)
	}
	v, _ := core.ParsePattern("?p kb:founded ?c")
	if _, ok := PatternShard(v, 4); ok {
		t.Error("variable-subject pattern must scatter")
	}
}

func TestFormatPatternRoundTrips(t *testing.T) {
	for _, line := range []string{
		"kb:jobs kb:founded ?c",
		"?p kb:founded ?c",
		`?p kb:label "Steve Jobs"`,
	} {
		p, err := core.ParsePattern(line)
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.ParsePattern(FormatPattern(p))
		if err != nil {
			t.Fatalf("FormatPattern(%q) = %q does not re-parse: %v", line, FormatPattern(p), err)
		}
		if back != p {
			t.Errorf("round trip %q -> %q: %+v != %+v", line, FormatPattern(p), back, p)
		}
	}
}

func TestFastPathSingleRPC(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		urls, counters := startShards(t, testTriples(), n)
		c := mustClient(t, urls, Options{})
		p, _ := core.ParsePattern("kb:jobs kb:founded ?c")
		res, err := c.Pattern(context.Background(), p, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Bindings) != 1 || res.Bindings[0]["c"] != rdf.NewIRI("kb:apple") {
			t.Fatalf("n=%d: bindings = %v", n, res.Bindings)
		}
		if res.RPCs != 1 {
			t.Errorf("n=%d: point lookup issued %d RPCs, want exactly 1", n, res.RPCs)
		}
		var total uint64
		for _, ctr := range counters {
			total += ctr.Load()
		}
		if total != 1 {
			t.Errorf("n=%d: shards saw %d requests, want exactly 1", n, total)
		}
		st := c.Stats()
		if st.FastPath != 1 || st.Scatters != 0 || st.RPCs != 1 {
			t.Errorf("n=%d: stats = %+v", n, st)
		}
	}
}

func TestScatterGatherMerge(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		urls, _ := startShards(t, testTriples(), n)
		c := mustClient(t, urls, Options{})
		p, _ := core.ParsePattern("?p kb:founded ?c")
		res, err := c.Pattern(context.Background(), p, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Bindings) != 3 {
			t.Fatalf("n=%d: got %d rows, want 3: %v", n, len(res.Bindings), res.Bindings)
		}
		if res.RPCs != n || res.Partial {
			t.Errorf("n=%d: RPCs = %d partial = %v", n, res.RPCs, res.Partial)
		}
		founders := map[string]bool{}
		for _, b := range res.Bindings {
			founders[b["p"].Value] = true
		}
		for _, want := range []string{"kb:jobs", "kb:wozniak", "kb:gates"} {
			if !founders[want] {
				t.Errorf("n=%d: founder %s missing from merge", n, want)
			}
		}
		if st := c.Stats(); st.FastPath != 0 || st.Scatters != 1 {
			t.Errorf("n=%d: stats = %+v", n, st)
		}
	}
}

func TestScatterLimit(t *testing.T) {
	urls, _ := startShards(t, testTriples(), 4)
	c := mustClient(t, urls, Options{})
	p, _ := core.ParsePattern("?p kb:founded ?c")
	res, err := c.Pattern(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 2 {
		t.Errorf("limit 2 returned %d rows", len(res.Bindings))
	}
}

func TestAskThroughFastPath(t *testing.T) {
	urls, _ := startShards(t, testTriples(), 4)
	c := mustClient(t, urls, Options{})
	p, _ := core.ParsePattern("kb:jobs kb:founded kb:apple")
	res, err := c.Pattern(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 || len(res.Bindings[0]) != 0 {
		t.Errorf("ask(true) = %v, want one empty binding", res.Bindings)
	}
	p, _ = core.ParsePattern("kb:jobs kb:founded kb:microsoft")
	res, err = c.Pattern(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 0 {
		t.Errorf("ask(false) = %v, want no bindings", res.Bindings)
	}
}

func TestEstimatesSumShards(t *testing.T) {
	urls, _ := startShards(t, testTriples(), 4)
	c := mustClient(t, urls, Options{})
	ps := make([]core.Pattern, 0, 3)
	for _, line := range []string{"?p kb:founded ?c", "kb:jobs kb:bornIn ?x", "?p kb:never ?x"} {
		p, _ := core.ParsePattern(line)
		ps = append(ps, p)
	}
	ests, err := c.Estimates(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("estimates = %v", ests)
	}
	if ests[0] < 3 {
		t.Errorf("founded estimate = %d, want >= 3", ests[0])
	}
	if ests[1] < 1 {
		t.Errorf("bornIn estimate = %d, want >= 1", ests[1])
	}
	if ests[2] != 0 {
		t.Errorf("unknown predicate estimate = %d, want 0", ests[2])
	}
}

// killShard replaces one shard with a closed server so RPCs to it fail.
func killShard(t *testing.T, urls []string, i int) {
	t.Helper()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	urls[i] = dead.URL
}

func TestScatterPartialFailureFailsByDefault(t *testing.T) {
	urls, _ := startShards(t, testTriples(), 4)
	killShard(t, urls, 2)
	c := mustClient(t, urls, Options{Timeout: 500 * time.Millisecond})
	p, _ := core.ParsePattern("?p kb:founded ?c")
	_, err := c.Pattern(context.Background(), p, 0)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	if st := c.Stats(); st.PartialFailures != 1 {
		t.Errorf("partial failures = %d, want 1", st.PartialFailures)
	}
}

func TestScatterPartialFailureDegradesWhenAllowed(t *testing.T) {
	triples := testTriples()
	urls, _ := startShards(t, triples, 4)
	const dead = 2
	killShard(t, urls, dead)
	c := mustClient(t, urls, Options{Timeout: 500 * time.Millisecond, AllowPartial: true})
	p, _ := core.ParsePattern("?p kb:founded ?c")
	res, err := c.Pattern(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("result not flagged partial")
	}
	// Exactly the live shards' matches must be present.
	want := 0
	for _, tr := range triples {
		if tr.P.Value == "kb:founded" && TripleShard(tr, 4) != dead {
			want++
		}
	}
	if len(res.Bindings) != want {
		t.Errorf("partial merge has %d rows, want %d", len(res.Bindings), want)
	}
}

func TestFastPathFailurePolicies(t *testing.T) {
	// Pin a lookup to the dead shard: default policy fails the query,
	// AllowPartial degrades to an empty partial result.
	urls, _ := startShards(t, testTriples(), 4)
	p, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	pinned, ok := PatternShard(p, 4)
	if !ok {
		t.Fatal("not pinned")
	}
	killShard(t, urls, pinned)

	strict := mustClient(t, urls, Options{Timeout: 500 * time.Millisecond})
	if _, err := strict.Pattern(context.Background(), p, 0); !errors.Is(err, ErrPartial) {
		t.Fatalf("strict err = %v, want ErrPartial", err)
	}
	lax := mustClient(t, urls, Options{Timeout: 500 * time.Millisecond, AllowPartial: true})
	res, err := lax.Pattern(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.Bindings) != 0 {
		t.Errorf("lax result = %+v, want empty partial", res)
	}
}

// A shard whose reply carries a term rdf.ParseTerm rejects is a failed
// shard like an unreachable one, on the pinned path as on a scatter: the
// strict policy fails the call with ErrPartial, AllowPartial keeps the
// other shards' rows and flags the result, and both count the failure.
func TestUnparsableTermIsAFailedShard(t *testing.T) {
	const badTerm = `"unterminated`
	if _, err := rdf.ParseTerm(badTerm); err == nil {
		t.Fatalf("rdf.ParseTerm(%q) succeeded; the test needs an unparsable term", badTerm)
	}
	const n, bad = 2, 1
	urls, _ := startShards(t, testTriples(), n)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.QueryResponse{
			Vars: []string{"c"}, Rows: []map[string]string{{"c": badTerm}}, Count: 1,
		})
	}))
	t.Cleanup(stub.Close)
	urls[bad] = stub.URL

	var pinned core.Pattern
	for i := 0; ; i++ {
		pinned, _ = core.ParsePattern(fmt.Sprintf("kb:e%d kb:founded ?c", i))
		if shard, _ := PatternShard(pinned, n); shard == bad {
			break
		}
	}
	scatter, _ := core.ParsePattern("?p kb:founded ?c")
	liveRows := 0
	for _, tr := range testTriples() {
		if tr.P.Value == "kb:founded" && TripleShard(tr, n) != bad {
			liveRows++
		}
	}

	for _, tc := range []struct {
		name string
		p    core.Pattern
		rows int
	}{{"pinned", pinned, 0}, {"scatter", scatter, liveRows}} {
		strict := mustClient(t, urls, Options{})
		if _, err := strict.Pattern(context.Background(), tc.p, 0); !errors.Is(err, ErrPartial) {
			t.Errorf("%s, strict: err = %v, want ErrPartial", tc.name, err)
		}
		if st := strict.Stats(); st.PartialFailures != 1 {
			t.Errorf("%s, strict: partial failures = %d, want 1", tc.name, st.PartialFailures)
		}
		lax := mustClient(t, urls, Options{AllowPartial: true})
		res, err := lax.Pattern(context.Background(), tc.p, 0)
		if err != nil {
			t.Errorf("%s, AllowPartial: %v", tc.name, err)
			continue
		}
		if !res.Partial || len(res.Bindings) != tc.rows {
			t.Errorf("%s, AllowPartial: partial = %v with %d rows, want true with %d",
				tc.name, res.Partial, len(res.Bindings), tc.rows)
		}
		if st := lax.Stats(); st.PartialFailures != 1 {
			t.Errorf("%s, AllowPartial: partial failures = %d, want 1", tc.name, st.PartialFailures)
		}
	}
}

func TestReady(t *testing.T) {
	urls, _ := startShards(t, testTriples(), 2)
	c := mustClient(t, urls, Options{})
	replies, err := c.Ready(context.Background())
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	total := 0
	for i, r := range replies {
		if r == nil {
			t.Fatalf("shard %d reply missing", i)
		}
		total += r.Facts
	}
	if total != len(testTriples()) {
		t.Errorf("ready shards report %d facts, want %d", total, len(testTriples()))
	}

	// An empty shard reports not-ready and fails the tier check.
	empty := httptest.NewServer(serve.NewServer(core.NewStore(), serve.Options{}))
	t.Cleanup(empty.Close)
	c2 := mustClient(t, append(append([]string(nil), urls...), empty.URL), Options{})
	if _, err := c2.Ready(context.Background()); err == nil {
		t.Error("Ready must fail with an empty shard in the tier")
	}
}

// noEpoch drops the epoch header from a reply, as a proxy that does not
// forward it would.
type noEpoch struct{ http.ResponseWriter }

func (w noEpoch) WriteHeader(code int) {
	w.Header().Del(serve.EpochHeader)
	w.ResponseWriter.WriteHeader(code)
}

func (w noEpoch) Write(b []byte) (int, error) {
	w.Header().Del(serve.EpochHeader)
	return w.ResponseWriter.Write(b)
}

// Generation advances when a replica states an epoch the client has not
// seen from it — its first reply, a reply after a write, a reply from a
// new process — and on every 200 reply that states none. Replies, and
// /readyz answers, that repeat the last epoch leave it alone.
func TestGenerationFollowsEpochs(t *testing.T) {
	st := core.NewStore()
	for _, tr := range testTriples() {
		st.Add(tr)
	}
	var strip atomic.Bool
	var h atomic.Pointer[serve.Server]
	h.Store(serve.NewServer(st, serve.Options{Timeout: time.Second}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strip.Load() {
			w = noEpoch{w}
		}
		h.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := mustClient(t, []string{srv.URL}, Options{})
	ctx := context.Background()
	scan, _ := core.ParsePattern("?p kb:founded ?c")
	step := func(what string, call func() error, want uint64) {
		t.Helper()
		g0 := c.Generation()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := c.Generation() - g0; got != want {
			t.Errorf("%s: generation advanced by %d, want %d", what, got, want)
		}
	}
	query := func() error { _, err := c.Pattern(ctx, scan, 0); return err }
	ready := func() error { _, err := c.Ready(ctx); return err }
	step("first reply", query, 1)
	step("same epoch", query, 0)
	step("same epoch on /readyz", ready, 0)
	st.Add(rdf.T("kb:ive", "kb:founded", "kb:apple"))
	step("after a write", query, 1)
	step("same epoch again", query, 0)
	strip.Store(true)
	step("no epoch", query, 1)
	step("still no epoch", query, 1)
	strip.Store(false)
	step("epoch back", query, 1)
	h.Store(serve.NewServer(st, serve.Options{Timeout: time.Second}))
	step("a new process, seen on /readyz", ready, 1)
	step("its epoch again", query, 0)
}

// Concurrent fast-path and scatter traffic against live shards: counters
// and merges must be race-clean (run under -race in CI).
func TestClientConcurrent(t *testing.T) {
	urls, _ := startShards(t, testTriples(), 4)
	c := mustClient(t, urls, Options{MaxInFlight: 6})
	point, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	scan, _ := core.ParsePattern("?p kb:founded ?c")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := point
				want := 1
				if (g+i)%2 == 0 {
					p = scan
					want = 3
				}
				res, err := c.Pattern(context.Background(), p, 0)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Bindings) != want {
					errs <- fmt.Errorf("got %d rows, want %d", len(res.Bindings), want)
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
	st := c.Stats()
	if st.FastPath+st.Scatters != 8*40 {
		t.Errorf("executions = %d, want %d", st.FastPath+st.Scatters, 8*40)
	}
}
