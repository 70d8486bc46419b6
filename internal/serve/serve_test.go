package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/qcache"
	"kbharvest/internal/rdf"
)

func testStore() *core.Store {
	st := core.NewStore()
	st.Add(rdf.T("kb:jobs", "kb:founded", "kb:apple"))
	st.Add(rdf.T("kb:wozniak", "kb:founded", "kb:apple"))
	st.Add(rdf.T("kb:gates", "kb:founded", "kb:microsoft"))
	st.Add(rdf.T("kb:apple", "kb:locatedIn", "kb:cupertino"))
	st.Add(rdf.T("kb:microsoft", "kb:locatedIn", "kb:redmond"))
	return st
}

func newTestServer(st *core.Store, timeout time.Duration) *Server {
	return NewServer(st, Options{Timeout: timeout})
}

func postJSON(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func postQuery(t *testing.T, srv http.Handler, body string) (*httptest.ResponseRecorder, QueryResponse) {
	t.Helper()
	rec := postJSON(t, srv, "/query", body)
	var resp QueryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

func TestServerQueryJoin(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	rec, resp := postQuery(t, srv, `{"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Count != 3 || len(resp.Rows) != 3 {
		t.Fatalf("count = %d rows = %d, want 3", resp.Count, len(resp.Rows))
	}
	if resp.Cached {
		t.Error("first query reported cached")
	}
	if want := []string{"c", "city", "p"}; fmt.Sprint(resp.Vars) != fmt.Sprint(want) {
		t.Errorf("vars = %v, want %v", resp.Vars, want)
	}
	// Repeat: served from cache.
	rec, resp = postQuery(t, srv, `{"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"]}`)
	if rec.Code != http.StatusOK || !resp.Cached {
		t.Errorf("repeat query: status %d cached %v", rec.Code, resp.Cached)
	}
	if resp.Count != 3 {
		t.Errorf("cached count = %d", resp.Count)
	}
}

func TestServerQueryLimit(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	rec, resp := postQuery(t, srv, `{"patterns": ["?p kb:founded ?c"], "limit": 2}`)
	if rec.Code != http.StatusOK || resp.Count != 2 {
		t.Errorf("status %d count %d, want 2 rows", rec.Code, resp.Count)
	}
}

func TestServerAskQuery(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	rec, resp := postQuery(t, srv, `{"patterns": ["kb:jobs kb:founded kb:apple"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Ask == nil || !*resp.Ask {
		t.Errorf("ask = %v, want true", resp.Ask)
	}
	if len(resp.Rows) != 0 {
		t.Errorf("ask query returned rows: %v", resp.Rows)
	}
	_, resp = postQuery(t, srv, `{"patterns": ["kb:jobs kb:founded kb:microsoft"]}`)
	if resp.Ask == nil || *resp.Ask {
		t.Errorf("ask = %v, want false", resp.Ask)
	}
}

func TestServerBadRequests(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	cases := []struct {
		body string
		want int
	}{
		{`{"patterns": []}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"patterns": ["only twoterms"]}`, http.StatusBadRequest},
		{`{"patterns": ["?x kb:label \"unterminated"]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, _ := postQuery(t, srv, c.body)
		if rec.Code != c.want {
			t.Errorf("body %q: status %d, want %d (%s)", c.body, rec.Code, c.want, rec.Body.String())
		}
	}
	// GET /query is not allowed.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", rec.Code)
	}
}

func TestServerTimeout(t *testing.T) {
	// A deadline in the past forces the evaluation's first context check
	// to fail, exercising the 504 path.
	srv := newTestServer(testStore(), time.Nanosecond)
	rec, _ := postQuery(t, srv, `{"patterns": ["?p kb:founded ?c"]}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
}

func TestServerEstimate(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	rec := postJSON(t, srv, "/estimate",
		`{"patterns": ["?p kb:founded ?c", "kb:apple kb:locatedIn ?city", "?p kb:never ?x"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate status %d: %s", rec.Code, rec.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Estimates) != 3 {
		t.Fatalf("estimates = %v, want 3 entries", resp.Estimates)
	}
	// Estimates are upper bounds: founded has 3 matches, the apple lookup
	// one, and a never-seen predicate is exactly zero.
	if resp.Estimates[0] < 3 {
		t.Errorf("founded estimate = %d, want >= 3", resp.Estimates[0])
	}
	if resp.Estimates[1] < 1 {
		t.Errorf("apple estimate = %d, want >= 1", resp.Estimates[1])
	}
	if resp.Estimates[2] != 0 {
		t.Errorf("unknown-predicate estimate = %d, want 0", resp.Estimates[2])
	}
	// Bad request envelope is shared with /query.
	if rec := postJSON(t, srv, "/estimate", `{"patterns": []}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty estimate status = %d", rec.Code)
	}
}

func TestServerReadyz(t *testing.T) {
	srv := NewServer(testStore(), Options{Snapshot: "kb.0.nt"})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz status %d", rec.Code)
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Facts != 5 || resp.Snapshot != "kb.0.nt" {
		t.Errorf("readyz = %+v", resp)
	}
	// An empty store is not ready: the router must skip it.
	empty := NewServer(core.NewStore(), Options{})
	rec = httptest.NewRecorder()
	empty.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("empty readyz status = %d, want 503", rec.Code)
	}
}

func TestServerStatsz(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	postQuery(t, srv, `{"patterns": ["?p kb:founded ?c"]}`)
	postQuery(t, srv, `{"patterns": ["?p kb:founded ?c"]}`)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz status %d", rec.Code)
	}
	var stats StatszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("statsz body %q: %v", rec.Body.String(), err)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v", stats.Cache)
	}
	if stats.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", stats.Cache.HitRate)
	}
	if stats.Latency.Count != 2 || stats.Latency.P99US == 0 {
		t.Errorf("latency stats = %+v", stats.Latency)
	}
	if stats.Store.Facts != 5 {
		t.Errorf("store facts = %d, want 5", stats.Store.Facts)
	}
}

func TestServerHealthz(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz status %d", rec.Code)
	}
}

// Concurrent requests against a store that keeps mutating: handlers and
// the cache must be race-clean, and every answer must be a possible state
// (3 stable join rows plus at most one transient chain).
func TestServerConcurrentQueriesWithWriter(t *testing.T) {
	st := testStore()
	srv := NewServer(st, Options{Timeout: time.Second})
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			co := fmt.Sprintf("kb:startup%d", i%5)
			st.Add(rdf.T("kb:founder", "kb:founded", co))
			st.Add(rdf.T(co, "kb:locatedIn", "kb:garage"))
			st.Remove(rdf.T("kb:founder", "kb:founded", co))
			st.Remove(rdf.T(co, "kb:locatedIn", "kb:garage"))
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 150; r++ {
				req := httptest.NewRequest(http.MethodPost, "/query",
					strings.NewReader(`{"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"]}`))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				if resp.Count < 3 || resp.Count > 4 {
					errs <- fmt.Errorf("impossible row count %d", resp.Count)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// Every error path must answer with the well-formed JSON error envelope
// and the right status: clients (and the router) parse these bodies, so
// a bare text error would break them.
func TestServerErrorEnvelopes(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	// The padding sits inside a pattern, so the body is well-formed but
	// for its size: the case tests the 1 MiB cap, not the strict envelope.
	oversized := `{"patterns": ["?p kb:founded \"` + strings.Repeat("x", 2<<20) + `\""]}`
	cases := []struct {
		name, path, body string
		want             int
		says             string // a substring of the error, when it matters which check refused
	}{
		{"malformed json", "/query", `{"patterns": [`, http.StatusBadRequest, ""},
		{"not json at all", "/query", `<html>`, http.StatusBadRequest, ""},
		{"oversized body", "/query", oversized, http.StatusBadRequest, "too large"},
		{"bad pattern", "/query", `{"patterns": ["too few"]}`, http.StatusBadRequest, ""},
		{"estimate malformed", "/estimate", `}{`, http.StatusBadRequest, ""},
		{"misspelt limit", "/query", `{"patterns": ["?p kb:founded ?c"], "limt": 1}`, http.StatusBadRequest, "limt"},
		{"second JSON value", "/query", `{"patterns": ["?p kb:founded ?c"]} {"patterns": []}`, http.StatusBadRequest, "after"},
		{"estimate unknown field", "/estimate", `{"patterns": ["?p kb:founded ?c"], "pad": 1}`, http.StatusBadRequest, "pad"},
		{"estimate trailing data", "/estimate", `{"patterns": ["?p kb:founded ?c"]} x`, http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		rec := postJSON(t, srv, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.name, ct)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: body %q is not an error envelope (%v)", c.name, rec.Body.String(), err)
		}
		if !strings.Contains(er.Error, c.says) {
			t.Errorf("%s: error %q does not mention %q", c.name, er.Error, c.says)
		}
	}
	// Trailing whitespace is not a second value.
	if rec := postJSON(t, srv, "/query", "{\"patterns\": [\"?p kb:founded ?c\"]}\n \t"); rec.Code != http.StatusOK {
		t.Errorf("trailing whitespace: status %d: %s", rec.Code, rec.Body.String())
	}
	// The timeout path flows through WriteQueryError: 504 plus envelope.
	slow := newTestServer(testStore(), time.Nanosecond)
	rec := postJSON(t, slow, "/query", `{"patterns": ["?p kb:founded ?c"]}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status %d, want 504", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("timeout body %q is not an error envelope (%v)", rec.Body.String(), err)
	}
}

// A snapshot that failed integrity verification must never report ready,
// even with facts loaded before the corruption was hit.
func TestServerReadyzLoadError(t *testing.T) {
	srv := NewServer(testStore(), Options{
		Snapshot:  "kb.0.nt",
		LoadError: fmt.Errorf("snapshot corrupt: crc aaaa, trailer says bbbb"),
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("corrupt-snapshot readyz = %d, want 503", rec.Code)
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "snapshot failed verification") {
		t.Errorf("readyz error = %q", resp.Error)
	}
}

// The ready -> draining transition a rolling restart depends on: /readyz
// flips to 503 while /query keeps answering, and flipping back restores
// readiness.
func TestServerReadyzDraining(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	readyz := func() int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if c := readyz(); c != http.StatusOK {
		t.Fatalf("readyz before drain = %d", c)
	}
	srv.SetDraining(true)
	if c := readyz(); c != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", c)
	}
	// In-flight and keep-alive queries still answer during the notice.
	rec, resp := postQuery(t, srv, `{"patterns": ["?p kb:founded ?c"]}`)
	if rec.Code != http.StatusOK || resp.Count != 3 {
		t.Fatalf("query while draining = %d count %d, want 200/3", rec.Code, resp.Count)
	}
	srv.SetDraining(false)
	if c := readyz(); c != http.StatusOK {
		t.Fatalf("readyz after drain cleared = %d", c)
	}
}

// Every 200 data reply and /readyz states the server's epoch: one value
// until the store is written, a new one after, and a different one from a
// new server over the same store.
func TestServerEpochHeader(t *testing.T) {
	st := testStore()
	epochs := func(srv http.Handler) []string {
		t.Helper()
		var out []string
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"patterns": ["?p kb:founded ?c"]}`)),
			httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(`{"patterns": ["?p kb:founded ?c"]}`)),
			httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(`{"pattern": ["?p", "<kb:founded>", "?c"], "vars": [], "rows": [[]]}`)),
			httptest.NewRequest(http.MethodGet, "/readyz", nil),
		} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req.URL.Path, rec.Code, rec.Body.String())
			}
			out = append(out, rec.Header().Get(EpochHeader))
		}
		return out
	}
	srv := newTestServer(st, time.Second)
	first := epochs(srv)
	for _, e := range first {
		if e == "" || e != first[0] {
			t.Fatalf("epochs %q: want one non-empty value on every endpoint", first)
		}
	}
	if again := epochs(srv)[0]; again != first[0] {
		t.Errorf("epoch moved from %q to %q without a write", first[0], again)
	}
	st.Add(rdf.T("kb:ive", "kb:founded", "kb:apple"))
	written := epochs(srv)[0]
	if written == first[0] {
		t.Errorf("epoch %q survived a write", written)
	}
	if other := epochs(newTestServer(st, time.Second))[0]; other == written {
		t.Errorf("a second server over the same store states the same epoch %q", other)
	}
}

// DecodePatterns never panics, and a body it accepts re-encodes to a
// QueryRequest it decodes to the same patterns, limit and cache key;
// everything else is a 400 with the error envelope.
func FuzzDecodePatterns(f *testing.F) {
	for _, seed := range []string{
		`{"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"], "limit": 3}`,
		`{"patterns": ["?x kb:says \"two  spaces \"@en"]}`,
		`{"patterns": ["<kb:a> <kb:b> \"\\u00e9\\ud800\"^^<xsd:string>"], "limit": -1}`,
		`{"Patterns": ["?p kb:founded ?c"], "LIMIT": 2}`,
		`{"patterns": ["?p kb:founded ?c"], "limt": 10}`,
		`{"patterns": ["?p kb:founded ?c"]} {"patterns": []}`,
		"{\"patterns\": [\"?p kb:founded ?c\"]}\n",
		`{"patterns": ["?p kb:founded ?c"], "limit": 1.5}`,
		`{"patterns": null}`, `null`, `[]`, ``, `{"patterns": ["only two"]}`,
	} {
		f.Add([]byte(seed))
	}
	decode := func(body []byte) (*QueryRequest, []core.Pattern, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		req, pats := DecodePatterns(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		return req, pats, rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, pats, rec := decode(body)
		if req == nil {
			var er ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
				t.Fatalf("refused %q with %d %q, want 400 and the error envelope", body, rec.Code, rec.Body.String())
			}
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, pats2, rec2 := decode(again)
		switch {
		case req2 == nil:
			t.Fatalf("accepted %q but refused its re-encoding %q: %s", body, again, rec2.Body.String())
		case !slices.Equal(pats, pats2) || req.Limit != req2.Limit:
			t.Fatalf("%q and its re-encoding %q decode differently:\n%v limit %d\n%v limit %d", body, again, pats, req.Limit, pats2, req2.Limit)
		case qcache.Key(pats, req.Limit) != qcache.Key(pats2, req2.Limit):
			t.Fatalf("%q and its re-encoding %q have different cache keys", body, again)
		}
	})
}

// Summary's percentiles are upper bounds read off the power-of-two
// buckets: a tail sample moves p99 and leaves p50 alone.
func TestLatencyQuantile(t *testing.T) {
	var h LatencyHistogram
	if s := h.Summary(); s.Count != 0 || s.P99US != 0 {
		t.Errorf("empty histogram summary = %+v, want zeros", s)
	}
	for i := 0; i < 98; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	s := h.Summary()
	if s.Count != 100 {
		t.Errorf("count = %d, want 100", s.Count)
	}
	if s.P50US < 100 || s.P50US > 1000 {
		t.Errorf("p50 = %dus, want a small upper bound near 100us", s.P50US)
	}
	if s.P99US < 50000 {
		t.Errorf("p99 = %dus, want an upper bound on the 50ms tail", s.P99US)
	}
}
