package serve

// kbserve's /query against a reference built from the binding form — the
// store's QueryFunc, bindingCells and AppendRowsHead, the path the
// handler took before it kept encoded replies — on the miss that fills
// the reply cache and on the hit that reuses it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/qcache"
	"kbharvest/internal/rdf"
)

// referenceHead is the reply head the binding form encodes.
func referenceHead(t *testing.T, st *core.Store, patterns []core.Pattern, limit int) []byte {
	t.Helper()
	var bs []core.Binding
	if err := st.QueryFunc(context.Background(), patterns, limit, func(b core.Binding) bool {
		bs = append(bs, b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	vars, cells := bindingCells(patterns, bs)
	return AppendRowsHead(nil, vars, cells, len(bs))
}

// bindingCells flattens the bindings of a conjunction into the positional
// form AppendRowsHead takes: the conjunction's variables, sorted, and one
// serialized cell per variable per binding. It is the tests' reference
// for the binding form, which no server path uses any more.
func bindingCells(patterns []core.Pattern, bindings []core.Binding) (vars, cells []string) {
	for _, p := range patterns {
		for _, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
			if pt.Var != "" && !slices.Contains(vars, string(pt.Var)) {
				vars = append(vars, string(pt.Var))
			}
		}
	}
	sort.Strings(vars)
	cells = make([]string, 0, len(vars)*len(bindings))
	for _, b := range bindings {
		for _, v := range vars {
			cells = append(cells, b[core.Var(v)].String())
		}
	}
	return vars, cells
}

var replyTail = regexp.MustCompile(`,"cached":(true|false),"took_us":[0-9]+}\n$`)

// splitReply cuts a 200 /query reply into its head and its cached flag.
func splitReply(t *testing.T, rec *httptest.ResponseRecorder) ([]byte, bool) {
	t.Helper()
	body := rec.Body.Bytes()
	loc := replyTail.FindSubmatchIndex(body)
	if rec.Code != http.StatusOK || loc == nil || !json.Valid(body) {
		t.Fatalf("status %d, reply %q", rec.Code, body)
	}
	return body[:loc[0]], string(body[loc[2]:loc[3]]) == "true"
}

// renderPattern writes p in the pattern syntax /query takes.
func renderPattern(p core.Pattern) string {
	terms := make([]string, 3)
	for i, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
		terms[i] = pt.Const.String()
		if pt.Var != "" {
			terms[i] = "?" + string(pt.Var)
		}
	}
	return strings.Join(terms, " ")
}

func queryBody(t *testing.T, patterns []core.Pattern, limit int) string {
	t.Helper()
	req := QueryRequest{Limit: limit}
	for _, p := range patterns {
		req.Patterns = append(req.Patterns, renderPattern(p))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkReply posts the query and compares the reply's head with the
// reference over the patterns the server parsed (a blank node has no
// pattern syntax: "_:b1" names an IRI) and its cached flag with
// wantCached.
func checkReply(t *testing.T, srv http.Handler, st *core.Store, patterns []core.Pattern, limit int, wantCached bool) {
	t.Helper()
	body := queryBody(t, patterns, limit)
	head, cached := splitReply(t, postJSON(t, srv, "/query", body))
	if cached != wantCached {
		t.Errorf("%s: cached %v, want %v", body, cached, wantCached)
	}
	_, parsed := DecodePatterns(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if want := referenceHead(t, st, parsed, limit); !bytes.Equal(head, want) {
		t.Errorf("%s (cached %v):\n got  %s\n want %s", body, cached, head, want)
	}
}

var hostile = []rdf.Term{
	rdf.NewLiteral("quote \" backslash \\ newline \n tab \t"),
	rdf.NewLangLiteral("café <&>  ", "fr"),
	rdf.NewTypedLiteral("1955-02-24", "xsd:date"),
	rdf.NewLiteral("ctl \x01 \x1e\x1f ?x"),
	rdf.NewBlank("b1"),
	rdf.NewIRI("kb:café\x1f?"),
}

// replyStore is a small seeded world: entities, predicates, and objects
// that are entities or hostile terms.
func replyStore(rng *rand.Rand) (*core.Store, []rdf.Term, []rdf.Term) {
	var ents, preds []rdf.Term
	for i := 0; i < 8; i++ {
		ents = append(ents, rdf.NewIRI(fmt.Sprintf("kb:e%d", i)))
	}
	for i := 0; i < 4; i++ {
		preds = append(preds, rdf.NewIRI(fmt.Sprintf("kb:p%d", i)))
	}
	st := core.NewStore()
	for i := 0; i < 80; i++ {
		o := ents[rng.Intn(len(ents))]
		if rng.Intn(4) == 0 {
			o = hostile[rng.Intn(len(hostile))]
		}
		st.Add(rdf.Triple{S: ents[rng.Intn(len(ents))], P: preds[rng.Intn(len(preds))], O: o})
	}
	return st, ents, preds
}

func TestQueryReplyMatchesBindingForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st, ents, preds := replyStore(rng)
	var first rdf.Triple
	for _, tr := range st.All() {
		first = tr
		break
	}
	v := core.PVar
	k := core.PTerm
	shapes := map[string]struct {
		patterns []core.Pattern
		limit    int
	}{
		"ask true":         {[]core.Pattern{{S: k(first.S), P: k(first.P), O: k(first.O)}}, 0},
		"ask false":        {[]core.Pattern{{S: k(ents[0]), P: k(preds[0]), O: k(rdf.NewIRI("kb:nowhere"))}}, 0},
		"limit":            {[]core.Pattern{{S: v("s"), P: k(preds[1]), O: v("o")}}, 3},
		"limit past end":   {[]core.Pattern{{S: v("s"), P: k(preds[1]), O: v("o")}}, 1000},
		"repeated var":     {[]core.Pattern{{S: v("x"), P: v("p"), O: v("x")}}, 0},
		"variable pred":    {[]core.Pattern{{S: k(ents[2]), P: v("p"), O: v("o")}, {S: v("o"), P: v("q"), O: v("z")}}, 0},
		"empty result":     {[]core.Pattern{{S: v("s"), P: k(rdf.NewIRI("kb:unknown")), O: v("o")}}, 0},
		"hostile objects":  {[]core.Pattern{{S: v("s"), P: v("p"), O: v("o")}}, 0},
		"hostile constant": {[]core.Pattern{{S: v("s"), P: v("p"), O: k(hostile[0])}}, 0},
		"hostile names":    {[]core.Pattern{{S: v("x\x1f?y"), P: v("\"p\""), O: v("o\\")}}, 0},
	}
	srv := newTestServer(st, time.Second)
	for name, q := range shapes {
		t.Run(name, func(t *testing.T) {
			checkReply(t, srv, st, q.patterns, q.limit, false)
			checkReply(t, srv, st, q.patterns, q.limit, true)
		})
	}
	// Seeded conjunctions over the same world.
	vars := []string{"a", "b", "c"}
	term := func(pos int) core.PatternTerm {
		switch r := rng.Intn(10); {
		case r < 5:
			return v(vars[rng.Intn(len(vars))])
		case pos == 1:
			return k(preds[rng.Intn(len(preds))])
		case r == 9:
			return k(hostile[rng.Intn(len(hostile))])
		}
		return k(ents[rng.Intn(len(ents))])
	}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		patterns := make([]core.Pattern, 1+rng.Intn(3))
		for j := range patterns {
			patterns[j] = core.Pattern{S: term(0), P: term(1), O: term(2)}
		}
		limit := 0
		if rng.Intn(3) == 0 {
			limit = 1 + rng.Intn(4)
		}
		// A conjunction drawn twice is a hit the first time round.
		key := qcache.Key(patterns, limit)
		checkReply(t, srv, st, patterns, limit, seen[key])
		checkReply(t, srv, st, patterns, limit, true)
		seen[key] = true
	}
}

// The pair of queries whose cache keys once coincided: each gets its own
// answer.
func TestQueryShiftedVariableNamesAreDistinctQueries(t *testing.T) {
	st := testStore()
	srv := newTestServer(st, time.Second)
	for _, line := range []string{"?x\x1f?y ?z ?w", "?x ?y\x1f?z ?w"} {
		p, err := core.ParsePattern(line)
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, srv, st, []core.Pattern{p}, 0, false)
	}
}

// A write makes the next reply a fresh answer, which the reply after it
// serves from the cache; adding a fact the store already holds writes
// nothing.
func TestQueryReplyFollowsWrites(t *testing.T) {
	st := testStore()
	srv := newTestServer(st, time.Second)
	join := []core.Pattern{
		{S: core.PVar("p"), P: core.PIRI("kb:founded"), O: core.PVar("c")},
		{S: core.PVar("c"), P: core.PIRI("kb:locatedIn"), O: core.PVar("city")},
	}
	count := func() int {
		_, resp := postQuery(t, srv, queryBody(t, join, 0))
		return resp.Count
	}
	checkReply(t, srv, st, join, 0, false)
	checkReply(t, srv, st, join, 0, true)
	st.Add(rdf.T("kb:ive", "kb:founded", "kb:apple"))
	checkReply(t, srv, st, join, 0, false)
	checkReply(t, srv, st, join, 0, true)
	st.Add(rdf.T("kb:ive", "kb:founded", "kb:apple")) // already stored: not a write
	checkReply(t, srv, st, join, 0, true)
	if n := count(); n != 4 {
		t.Errorf("after the add: %d rows, want 4", n)
	}
}

// bigStore holds n facts on kb:big.
func bigStore(n int) *core.Store {
	st := core.NewStore()
	for i := 0; i < n; i++ {
		st.Add(rdf.T(fmt.Sprintf("kb:s%d", i), "kb:big", fmt.Sprintf("kb:o%d", i)))
	}
	return st
}

const bigScan = `{"patterns": ["?s kb:big ?o"]}`

// Concurrent hits on one large entry while a writer adds, both beside the
// entry and into it: every body is a well-formed reply with as many rows
// as it counts, and the head the cache stored is never written to (the
// race detector would see that too).
func TestQueryHitsShareAnUnchangedHead(t *testing.T) {
	const rows = 1000
	st := bigStore(rows)
	srv := newTestServer(st, time.Second)
	postQuery(t, srv, bigScan)
	key := qcache.Key([]core.Pattern{{S: core.PVar("s"), P: core.PIRI("kb:big"), O: core.PVar("o")}}, 0)
	stored, ok := srv.cache.Get(key)
	if !ok {
		t.Fatal("the scan was not cached")
	}
	was := bytes.Clone(stored)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Add(rdf.T(fmt.Sprintf("kb:w%d", i), "kb:other", "kb:x"))
			if i%50 == 0 {
				st.Add(rdf.T(fmt.Sprintf("kb:w%d", i), "kb:big", "kb:x"))
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				rec := postJSON(t, srv, "/query", bigScan)
				var resp struct {
					Rows  []json.RawMessage
					Count int
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d, %v: %.200s", rec.Code, err, rec.Body.String())
					return
				}
				if resp.Count < rows || len(resp.Rows) != resp.Count {
					errs <- fmt.Errorf("count %d with %d rows", resp.Count, len(resp.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(stored, was) {
		t.Error("the stored head changed under hits")
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// allocsPerRequest is the average allocation count of handling body.
func allocsPerRequest(handle func(http.ResponseWriter, *http.Request), body string) float64 {
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/query", nil)
	rd := strings.NewReader(body)
	return testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		r.Body = readCloser{rd}
		handle(w, r)
	})
}

type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }

// A hit does no per-row work and runs neither the matcher nor the
// encoder: the same repeated query allocates the same over 100 rows and
// over 2000, and no more than decoding its request plus a handful, which
// Compile alone would exceed. (bindingCells and the binding maps would
// cost one or more per row.) Both stores hold at least 100 facts because
// strconv formats smaller numbers without allocating.
func TestQueryHitAllocatesNothingPerRow(t *testing.T) {
	small, large := newTestServer(bigStore(100), time.Second), newTestServer(bigStore(2000), time.Second)
	postQuery(t, small, bigScan)
	postQuery(t, large, bigScan)
	smallHit, largeHit := allocsPerRequest(small.handleQuery, bigScan), allocsPerRequest(large.handleQuery, bigScan)
	if largeHit > smallHit {
		t.Errorf("a hit allocates %.0f times over 2000 rows, %.0f over 100", largeHit, smallHit)
	}
	decode := allocsPerRequest(func(w http.ResponseWriter, r *http.Request) { DecodePatterns(w, r) }, bigScan)
	// The handful: the key, the tail, the reply length, two header values.
	const handful = 5
	if smallHit > decode+handful {
		t.Errorf("a hit allocates %.0f times, decoding its request %.0f: more than %d beside decoding", smallHit, decode, handful)
	}
	pats := []core.Pattern{{S: core.PVar("s"), P: core.PIRI("kb:big"), O: core.PVar("o")}}
	if compile := testing.AllocsPerRun(50, func() { small.st.Compile(pats) }); compile < 2 {
		t.Errorf("Compile allocates %.0f times: the bound cannot tell whether a hit runs it", compile)
	}
}
