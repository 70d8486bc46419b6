package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// postBind posts a /bind body and decodes a 200 reply with the package's
// own reply parser (the one the shardkb client uses).
func postBind(t *testing.T, srv http.Handler, body string) (*httptest.ResponseRecorder, *BindResponse) {
	t.Helper()
	rec := postJSON(t, srv, "/bind", body)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("reply is not JSON: %s", rec.Body.String())
	}
	resp, err := ParseBindResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("bad reply %q: %v", rec.Body.String(), err)
	}
	return rec, resp
}

// bindRows renders a reply as sorted "from:cell,cell" strings.
func bindRows(resp *BindResponse) []string {
	out := make([]string, len(resp.From))
	w := len(resp.Vars)
	for i, f := range resp.From {
		out[i] = fmt.Sprintf("%d:%s", f, strings.Join(resp.Cells[i*w:(i+1)*w], ","))
	}
	sort.Strings(out)
	return out
}

func TestBindSeedsEachRow(t *testing.T) {
	st := testStore()
	st.Add(rdf.T("kb:loop", "kb:knows", "kb:loop"))
	st.Add(rdf.T("kb:loop", "kb:knows", "kb:jobs"))
	st.Add(rdf.Triple{S: rdf.NewIRI("kb:jobs"), P: rdf.NewIRI("kb:motto"), O: rdf.NewLangLiteral("stay \"hungry\"\n\\o/", "en")})
	srv := newTestServer(st, time.Second)
	for _, tc := range []struct {
		name, body string
		vars       []string
		want       []string
	}{
		{"bound subject, one row without a match",
			`{"pattern":["?c","<kb:locatedIn>","?city"],"vars":["c"],"rows":[["<kb:apple>"],["<kb:nowhere>"],["<kb:microsoft>"]]}`,
			[]string{"city"}, []string{"0:<kb:cupertino>", "2:<kb:redmond>"}},
		{"first step: the one empty row",
			`{"pattern":["?p","kb:founded","?c"],"vars":[],"rows":[[]]}`,
			[]string{"p", "c"}, []string{"0:<kb:gates>,<kb:microsoft>", "0:<kb:jobs>,<kb:apple>", "0:<kb:wozniak>,<kb:apple>"}},
		{"bound object",
			`{"pattern":["?p","<kb:founded>","?c"],"vars":["c"],"rows":[["<kb:apple>"]]}`,
			[]string{"p"}, []string{"0:<kb:jobs>", "0:<kb:wozniak>"}},
		{"every variable bound: a filter, rows of no cells",
			`{"pattern":["?p","<kb:founded>","?c"],"vars":["p","c"],"rows":[["<kb:jobs>","<kb:apple>"],["<kb:jobs>","<kb:microsoft>"]]}`,
			nil, []string{"0:"}},
		{"all-constant pattern",
			`{"pattern":["kb:jobs","kb:founded","kb:apple"],"vars":[],"rows":[[]]}`,
			nil, []string{"0:"}},
		{"repeated unbound variable",
			`{"pattern":["?x","kb:knows","?x"],"vars":[],"rows":[[]]}`,
			[]string{"x"}, []string{"0:<kb:loop>"}},
		{"repeated bound variable",
			`{"pattern":["?x","kb:knows","?x"],"vars":["x"],"rows":[["<kb:jobs>"],["<kb:loop>"]]}`,
			nil, []string{"1:"}},
		{"variable predicate, literal object with escapes",
			`{"pattern":["?s","?rel","?o"],"vars":["s","rel"],"rows":[["<kb:jobs>","<kb:motto>"]]}`,
			[]string{"o"}, []string{`0:"stay \"hungry\"\n\\o/"@en`}},
		{"literal as the bound key",
			`{"pattern":["?s","kb:motto","?o"],"vars":["o"],"rows":[["\"stay \\\"hungry\\\"\\n\\\\o/\"@en"]]}`,
			[]string{"s"}, []string{"0:<kb:jobs>"}},
		{"no rows in, no rows out",
			`{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[]}`,
			[]string{"city"}, []string{}},
	} {
		rec, resp := postBind(t, srv, tc.body)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if fmt.Sprint(resp.Vars) != fmt.Sprint(tc.vars) {
			t.Errorf("%s: vars = %v, want %v", tc.name, resp.Vars, tc.vars)
		}
		if got := bindRows(resp); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rows = %q, want %q", tc.name, got, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
	}
}

// Every way a /bind request can be wrong answers with the JSON error
// envelope and the status the rest of the protocol uses.
func TestBindErrorEnvelopes(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	oversized := `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[["<` + strings.Repeat("x", MaxRequestBytes) + `>"]]}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"pattern":[`, http.StatusBadRequest},
		{"not an object", `[1,2]`, http.StatusBadRequest},
		{"trailing content", `{"pattern":["?a","?b","?c"],"vars":[],"rows":[[]]} x`, http.StatusBadRequest},
		{"unknown key", `{"pattern":["?a","?b","?c"],"vars":[],"rows":[[]],"limit":3}`, http.StatusBadRequest},
		{"two-term pattern", `{"pattern":["?a","?b"],"vars":[],"rows":[[]]}`, http.StatusBadRequest},
		{"bad pattern term", `{"pattern":["?a","?","?c"],"vars":[],"rows":[[]]}`, http.StatusBadRequest},
		{"row wider than vars", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[["<kb:a>","<kb:b>"]]}`, http.StatusBadRequest},
		{"row narrower than vars", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[[]]}`, http.StatusBadRequest},
		{"ragged rows", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[["<kb:a>"],[]]}`, http.StatusBadRequest},
		{"row of numbers", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[[1]]}`, http.StatusBadRequest},
		{"unparsable term", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[["\"unterminated"]]}`, http.StatusBadRequest},
		{"term with trailing junk", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[["<kb:a> <kb:b>"]]}`, http.StatusBadRequest},
		{"empty IRI would be a wildcard", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c"],"rows":[["<>"]]}`, http.StatusBadRequest},
		{"var not in the pattern", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["z"],"rows":[["<kb:a>"]]}`, http.StatusBadRequest},
		{"var listed twice", `{"pattern":["?c","kb:locatedIn","?city"],"vars":["c","c"],"rows":[["<kb:a>","<kb:a>"]]}`, http.StatusBadRequest},
		{"from in a request", `{"pattern":["?a","?b","?c"],"vars":[],"from":[0],"rows":[[]]}`, http.StatusBadRequest},
		{"oversized body", oversized, http.StatusBadRequest},
	} {
		rec := postJSON(t, srv, "/bind", tc.body)
		checkEnvelope(t, tc.name, rec, tc.want)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/bind", nil))
	checkEnvelope(t, "GET", rec, http.StatusMethodNotAllowed)

	// The deadline flows through WriteQueryError like /query's: 504.
	slow := newTestServer(testStore(), time.Nanosecond)
	rec = postJSON(t, slow, "/bind", `{"pattern":["?p","kb:founded","?c"],"vars":[],"rows":[[]]}`)
	checkEnvelope(t, "deadline", rec, http.StatusGatewayTimeout)
}

func checkEnvelope(t *testing.T, name string, rec *httptest.ResponseRecorder, want int) {
	t.Helper()
	if rec.Code != want {
		t.Errorf("%s: status %d, want %d: %s", name, rec.Code, want, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("%s: body %q is not an error envelope (%v)", name, rec.Body.String(), err)
	}
}

// A server holding a LoadError serves no data: whatever loaded before the
// corruption was hit is a torn KB. The process stays inspectable.
func TestLoadErrorRefusesDataEndpoints(t *testing.T) {
	srv := NewServer(testStore(), Options{LoadError: fmt.Errorf("crc aaaa, trailer says bbbb")})
	for path, body := range map[string]string{
		"/query":    `{"patterns": ["?p kb:founded ?c"]}`,
		"/estimate": `{"patterns": ["?p kb:founded ?c"]}`,
		"/bind":     `{"pattern":["?p","kb:founded","?c"],"vars":[],"rows":[[]]}`,
	} {
		rec := postJSON(t, srv, path, body)
		checkEnvelope(t, path, rec, http.StatusServiceUnavailable)
		if !strings.Contains(rec.Body.String(), "snapshot failed verification") {
			t.Errorf("%s: error does not name the cause: %s", path, rec.Body.String())
		}
	}
	for path, want := range map[string]int{"/statsz": 200, "/healthz": 200, "/readyz": 503} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
}

// The hand-written body parser against encoding/json on the shapes it
// accepts, escapes included.
func TestParseBindBodyMatchesEncodingJSON(t *testing.T) {
	cells := []string{
		`<kb:a>`, `"plain"`, "\"quote \\\" backslash \\\\ newline \\n tab \\t\"@en", `"1955-02-24"^^<xsd:date>`,
		"_:b1", "caf\u00e9 \u2028 \U0001F600", "ctl \x01\x1f", "", `/slash`, "\ufffd",
	}
	type wire struct {
		Vars []string   `json:"vars"`
		From []int      `json:"from"`
		Rows [][]string `json:"rows"`
	}
	in := wire{Vars: []string{"x", "y"}, From: []int{0, 7, 123456}, Rows: [][]string{cells[:2], cells[2:4], cells[4:6]}}
	in.Rows = append(in.Rows, cells[6:8], cells[8:10])
	in.From = append(in.From, 3, 4)
	data, err := json.Marshal(in) // escapes <, >, & and U+2028 as \u sequences
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseBindResponse(data)
	if err != nil {
		t.Fatalf("ParseBindResponse(%s): %v", data, err)
	}
	if !reflect.DeepEqual(resp.Vars, in.Vars) || !reflect.DeepEqual(resp.From, in.From) || !reflect.DeepEqual(resp.Cells, cells) {
		t.Errorf("parsed %+v from %s", resp, data)
	}
	// Surrogate pairs and lone halves, written as escapes.
	resp, err = ParseBindResponse([]byte(`{"vars":["x"],"from":[0,0,0],"rows":[["\ud83d\ude00"],["\ud83dx"],["\ude00"]]} `))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"\U0001F600", "\ufffdx", "\ufffd"}; !reflect.DeepEqual(resp.Cells, want) {
		t.Errorf("surrogates parsed as %q, want %q", resp.Cells, want)
	}
	for _, bad := range []string{
		``, `{`, `{"vars"}`, `{"vars":["x"],}`, `{"vars":["x"]"from":[]}`, `{"from":[-1],"rows":[[]]}`,
		`{"from":[1.5],"rows":[[]]}`, `{"from":[99999999999999999999],"rows":[[]]}`, `{"rows":[["a\qb"]],"from":[0],"vars":["x"]}`,
		`{"rows":[["a` + "\n" + `b"]],"from":[0],"vars":["x"]}`, `{"rows":[["\u12"]],"from":[0],"vars":["x"]}`,
		`{"rows":[["unterminated]],"from":[0],"vars":["x"]}`, `{"rows":[["a"],["b","c"]],"from":[0,1],"vars":["x"]}`,
		`{"rows":[["a"]],"from":[0,1],"vars":["x"]}`, `{"rows":[["a"]],"from":[0],"vars":[]}`, `{"pattern":["a","b","c"],"vars":[],"from":[],"rows":[]}`,
		`{"rows":"x"}`, `{"rows":[["a"]`, `null`,
	} {
		if resp, err := ParseBindResponse([]byte(bad)); err == nil {
			t.Errorf("ParseBindResponse(%q) = %+v, want an error", bad, resp)
		}
	}
}

// Mutated bodies must be rejected or parsed, never panic.
func TestParseBindBodyNeverPanics(t *testing.T) {
	seed := []byte(`{"pattern":["?c","<kb:locatedIn>","?city"],"vars":["c"],"from":[0,12],"rows":[["<kb:a\u00e9\ud83d\ude00>"],["\"x\\\"y\""]]}`)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := append([]byte(nil), seed...)
		for k := rng.Intn(4); k >= 0; k-- {
			switch pos := rng.Intn(len(b)); rng.Intn(3) {
			case 0:
				b[pos] = byte(rng.Intn(256))
			case 1:
				b = append(b[:pos], b[pos+1:]...)
			default:
				b = b[:pos]
			}
			if len(b) == 0 {
				break
			}
		}
		parseBindBody(b)
	}
}

// AppendRowsHead followed by AppendRowsTail must put on the wire what
// encoding/json puts there for the QueryResponse holding the same
// solutions, whether the rows come positional and unsorted (the router's
// join) or as bindings flattened by BindingCells (kbserve, the router's
// single-pattern branch).
func TestAppendRowsResponseMatchesBuildQueryResponse(t *testing.T) {
	reply := func(vars, cells []string, n int, cached, partial bool) []byte {
		return AppendRowsTail(AppendRowsHead(nil, vars, cells, n), cached, 42, partial)
	}
	terms := []rdf.Term{
		rdf.NewIRI("kb:apple"), rdf.NewLiteral("quote \" backslash \\ newline \n tab \t"),
		rdf.NewLangLiteral("caf\u00e9 <&> \u2028", "fr"), rdf.NewTypedLiteral("1955-02-24", "xsd:date"), rdf.NewBlank("b1"),
		rdf.NewLiteral("ctl \x01"),
	}
	decode := func(body []byte) QueryResponse {
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("reply %q: %v", body, err)
		}
		return resp
	}
	// The reference: the reply struct, filled by hand and encoded by
	// encoding/json as the handlers did before they shared one encoder.
	viaJSON := func(bs []core.Binding, hasVar, cached, partial bool) QueryResponse {
		resp := QueryResponse{Count: len(bs), Cached: cached, TookUS: 42, Partial: partial}
		if !hasVar {
			ask := len(bs) > 0
			resp.Ask, resp.Count = &ask, 0
		} else if len(bs) > 0 {
			for v := range bs[0] {
				resp.Vars = append(resp.Vars, string(v))
			}
			sort.Strings(resp.Vars)
			for _, b := range bs {
				row := map[string]string{}
				for v, term := range b {
					row[string(v)] = term.String()
				}
				resp.Rows = append(resp.Rows, row)
			}
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, resp)
		return decode(rec.Body.Bytes())
	}
	rng := rand.New(rand.NewSource(7))
	vars := []string{"p", "city", "c\"x"} // unsorted, one needing an escape
	pattern := []core.Pattern{{S: core.PVar(vars[0]), P: core.PVar(vars[1]), O: core.PVar(vars[2])}}
	for n := 0; n < 5; n++ {
		var cells []string
		bs := make([]core.Binding, n)
		for i := range bs {
			bs[i] = core.Binding{}
			for _, v := range vars {
				term := terms[rng.Intn(len(terms))]
				bs[i][core.Var(v)] = term
				cells = append(cells, term.String())
			}
		}
		cached, partial := n%2 == 0, n%2 == 1
		want := viaJSON(bs, true, cached, partial)
		if got := decode(reply(vars, cells, n, cached, partial)); !reflect.DeepEqual(got, want) {
			t.Errorf("positional, n=%d:\n got  %+v\n want %+v", n, got, want)
		}
		sortedVars, sortedCells := BindingCells(pattern, bs)
		if got := decode(reply(sortedVars, sortedCells, n, cached, partial)); !reflect.DeepEqual(got, want) {
			t.Errorf("bindings, n=%d:\n got  %+v\n want %+v", n, got, want)
		}
	}
	ask := []core.Pattern{{S: core.PIRI("kb:jobs"), P: core.PIRI("kb:founded"), O: core.PIRI("kb:apple")}}
	for _, holds := range []bool{false, true} {
		var bs []core.Binding
		if holds {
			bs = []core.Binding{{}}
		}
		askVars, askCells := BindingCells(ask, bs)
		got := decode(reply(askVars, askCells, len(bs), holds, false))
		if want := viaJSON(bs, false, holds, false); !reflect.DeepEqual(got, want) || got.Ask == nil || *got.Ask != holds {
			t.Errorf("ask %v:\n got  %+v\n want %+v", holds, got, want)
		}
	}
}
