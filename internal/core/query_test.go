package core

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"kbharvest/internal/rdf"
)

func buildQueryFixture() *Store {
	st := NewStore()
	st.Add(rdf.T("jobs", "founded", "apple"))
	st.Add(rdf.T("jobs", "founded", "next"))
	st.Add(rdf.T("wozniak", "founded", "apple"))
	st.Add(rdf.T("gates", "founded", "microsoft"))
	st.Add(rdf.T("apple", "locatedIn", "cupertino"))
	st.Add(rdf.T("microsoft", "locatedIn", "redmond"))
	st.Add(rdf.T("next", "locatedIn", "redwood"))
	st.AddType("jobs", "person")
	st.AddType("wozniak", "person")
	st.AddType("gates", "person")
	return st
}

func TestQuerySinglePattern(t *testing.T) {
	st := buildQueryFixture()
	got := st.Query([]Pattern{{S: PVar("x"), P: PIRI("founded"), O: PIRI("apple")}})
	if len(got) != 2 {
		t.Fatalf("got %d bindings, want 2", len(got))
	}
	SortBindings(got, "x")
	if got[0]["x"].Value != "jobs" || got[1]["x"].Value != "wozniak" {
		t.Errorf("bindings = %v", got)
	}
}

func TestQueryJoin(t *testing.T) {
	st := buildQueryFixture()
	// Who founded a company located in redmond?
	got := st.Query([]Pattern{
		{S: PVar("p"), P: PIRI("founded"), O: PVar("c")},
		{S: PVar("c"), P: PIRI("locatedIn"), O: PIRI("redmond")},
	})
	if len(got) != 1 {
		t.Fatalf("got %d bindings, want 1: %v", len(got), got)
	}
	if got[0]["p"].Value != "gates" || got[0]["c"].Value != "microsoft" {
		t.Errorf("binding = %v", got[0])
	}
}

func TestQueryThreeWayJoin(t *testing.T) {
	st := buildQueryFixture()
	// People and the cities of companies they founded.
	got := st.Query([]Pattern{
		{S: PVar("p"), P: PIRI(rdf.RDFType), O: PIRI("person")},
		{S: PVar("p"), P: PIRI("founded"), O: PVar("c")},
		{S: PVar("c"), P: PIRI("locatedIn"), O: PVar("city")},
	})
	if len(got) != 4 {
		t.Fatalf("got %d rows, want 4: %v", len(got), got)
	}
	SortBindings(got, "p", "city")
	if got[0]["p"].Value != "gates" || got[0]["city"].Value != "redmond" {
		t.Errorf("first row = %v", got[0])
	}
}

func TestQueryNoResults(t *testing.T) {
	st := buildQueryFixture()
	got := st.Query([]Pattern{
		{S: PVar("x"), P: PIRI("founded"), O: PIRI("nonexistent")},
	})
	if got != nil {
		t.Errorf("want nil, got %v", got)
	}
	// Join that dies at second pattern.
	got = st.Query([]Pattern{
		{S: PVar("x"), P: PIRI("founded"), O: PVar("c")},
		{S: PVar("c"), P: PIRI("locatedIn"), O: PIRI("nowhere")},
	})
	if got != nil {
		t.Errorf("want nil, got %v", got)
	}
}

func TestQueryRepeatedVariable(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("a", "knows", "a")) // self loop
	st.Add(rdf.T("a", "knows", "b"))
	got := st.Query([]Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("x")}})
	if len(got) != 1 || got[0]["x"].Value != "a" {
		t.Errorf("self-loop query = %v", got)
	}
}

func TestQueryVariablePredicate(t *testing.T) {
	st := buildQueryFixture()
	got := st.Query([]Pattern{{S: PIRI("jobs"), P: PVar("r"), O: PVar("y")}})
	if len(got) != 3 {
		t.Errorf("got %d rows, want 3", len(got))
	}
}

func TestQueryEmptyPatternList(t *testing.T) {
	st := buildQueryFixture()
	got := st.Query(nil)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("empty query should yield one empty binding, got %v", got)
	}
}

func TestParsePatternTerm(t *testing.T) {
	cases := []struct {
		in      string
		wantVar Var
		wantIRI string
		wantLit string
		wantErr bool
	}{
		{"?x", "x", "", "", false},
		{"<kb:founded>", "", "kb:founded", "", false},
		{"kb:founded", "", "kb:founded", "", false},
		{`"Steve Jobs"`, "", "", "Steve Jobs", false},
		{"?", "", "", "", true},
		{"", "", "", "", true},
		{"<>", "", "", "", true}, // the zero term, a wildcard
	}
	for _, c := range cases {
		got, err := ParsePatternTerm(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePatternTerm(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePatternTerm(%q): %v", c.in, err)
			continue
		}
		switch {
		case c.wantVar != "":
			if got.Var != c.wantVar {
				t.Errorf("ParsePatternTerm(%q).Var = %q", c.in, got.Var)
			}
		case c.wantIRI != "":
			if !got.Const.IsIRI() || got.Const.Value != c.wantIRI {
				t.Errorf("ParsePatternTerm(%q) = %v", c.in, got.Const)
			}
		case c.wantLit != "":
			if !got.Const.IsLiteral() || got.Const.Value != c.wantLit {
				t.Errorf("ParsePatternTerm(%q) = %v", c.in, got.Const)
			}
		}
	}
}

func TestQueryStrings(t *testing.T) {
	st := buildQueryFixture()
	got, err := st.QueryStrings([]string{
		"?p founded ?c",
		"?c locatedIn cupertino",
	})
	if err != nil {
		t.Fatal(err)
	}
	SortBindings(got, "p")
	if len(got) != 2 || got[0]["p"].Value != "jobs" || got[1]["p"].Value != "wozniak" {
		t.Errorf("QueryStrings = %v", got)
	}
	if _, err := st.QueryStrings([]string{"only two"}); err == nil {
		t.Error("malformed pattern should error")
	}
}

// bruteForce is the reference evaluator: nested loops over a flat list of
// triples, one map copied per candidate, no IDs, no indexes, no planner.
func bruteForce(triples []rdf.Triple, patterns []Pattern) []Binding {
	if len(patterns) == 0 {
		return []Binding{{}}
	}
	var out []Binding
	for _, b := range bruteForce(triples, patterns[:len(patterns)-1]) {
	next:
		for _, tr := range triples {
			nb := Binding{}
			for v, t := range b {
				nb[v] = t
			}
			p := patterns[len(patterns)-1]
			for _, pos := range [3]struct {
				pt  PatternTerm
				got rdf.Term
			}{{p.S, tr.S}, {p.P, tr.P}, {p.O, tr.O}} {
				switch want, bound := nb[pos.pt.Var]; {
				case pos.pt.Var == "" && pos.pt.Const.IsZero(): // wildcard
				case pos.pt.Var == "" && pos.pt.Const != pos.got, bound && want != pos.got:
					continue next
				case pos.pt.Var != "":
					nb[pos.pt.Var] = pos.got
				}
			}
			out = append(out, nb)
		}
	}
	return out
}

// renderBindings turns bindings into sorted "var=term var=term" strings.
func renderBindings(bs []Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		var cells []string
		for v, t := range b {
			cells = append(cells, string(v)+"="+t.String())
		}
		sort.Strings(cells)
		out[i] = strings.Join(cells, " ")
	}
	sort.Strings(out)
	return out
}

// Property: two-pattern joins agree with a brute-force nested-loop join
// over random stores.
func TestQueryJoinAgreesWithBruteForce(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	rels := []string{"p", "q"}
	rnd := func(seed int64) *Store {
		st := NewStore()
		x := uint64(seed)
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		for i := 0; i < 30; i++ {
			st.Add(rdf.T(names[next(4)], rels[next(2)], names[next(4)]))
		}
		return st
	}
	for seed := int64(1); seed <= 25; seed++ {
		st := rnd(seed)
		patterns := []Pattern{
			{S: PVar("x"), P: PIRI("p"), O: PVar("y")},
			{S: PVar("y"), P: PIRI("q"), O: PVar("z")},
		}
		got, want := renderBindings(st.Query(patterns)), renderBindings(bruteForce(st.All(), patterns))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: join returned %q, brute force %q", seed, got, want)
		}
	}
}

// The edges the slot matcher has to get right now that no map is cloned
// per match: each against the brute-force evaluator.
func TestSlotMatcherEdgesAgreeWithBruteForce(t *testing.T) {
	world := []rdf.Triple{
		rdf.T("a", "knows", "a"), rdf.T("a", "knows", "b"), rdf.T("b", "knows", "a"), rdf.T("b", "knows", "c"),
		rdf.T("c", "knows", "c"), rdf.T("a", "likes", "b"), rdf.T("b", "likes", "b"), rdf.T("knows", "likes", "c"),
		rdf.T("a1", "p", "b1"), rdf.T("a2", "p", "b2"), rdf.T("b1", "q", "c1"), rdf.T("b2", "q", "c2"),
	}
	wildcard := PatternTerm{}
	for _, tc := range []struct {
		name     string
		patterns []Pattern
		limit    int
		seed     Binding                   // slots bound before the match, as /bind seeds them
		stopAt   int                       // fn returns false at this row (0 = never)
		before   func(st *Store)           // runs between Compile and Match
		onRow    func(st *Store, n int)    // runs inside fn
		want     func(st *Store) []Binding // nil: brute force over the store as built
	}{
		{name: "variable repeated inside one pattern",
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("x")}}},
		{name: "variable repeated in all three positions",
			patterns: []Pattern{{S: PVar("x"), P: PVar("x"), O: PVar("x")}}},
		{name: "variable repeated inside a later pattern",
			patterns: []Pattern{{S: PVar("x"), P: PIRI("likes"), O: PVar("y")}, {S: PVar("y"), P: PVar("r"), O: PVar("y")}}},
		{name: "variables repeated across patterns",
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}, {S: PVar("y"), P: PIRI("knows"), O: PVar("x")}}},
		{name: "a predicate variable that is a subject elsewhere",
			patterns: []Pattern{{S: PVar("s"), P: PVar("r"), O: PVar("o")}, {S: PVar("r"), P: PIRI("likes"), O: PVar("z")}}},
		{name: "explicit wildcard position",
			patterns: []Pattern{{S: PVar("x"), P: wildcard, O: PIRI("b")}, {S: PVar("x"), P: PIRI("knows"), O: wildcard}}},
		{name: "all wildcards beside a constant pattern",
			patterns: []Pattern{{S: wildcard, P: wildcard, O: wildcard}, {S: PIRI("a"), P: PIRI("likes"), O: PIRI("b")}}},
		{name: "limit reached mid-branch", limit: 3,
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}, {S: PVar("y"), P: PIRI("knows"), O: PVar("z")}}},
		{name: "fn returning false", stopAt: 2,
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}, {S: PVar("y"), P: PIRI("knows"), O: PVar("z")}}},
		{name: "seeded slots, one of them repeated", seed: Binding{"y": rdf.NewIRI("b")},
			patterns: []Pattern{{S: PVar("x"), P: PVar("r"), O: PVar("y")}, {S: PVar("y"), P: PIRI("likes"), O: PVar("y")}}},
		{name: "seeded with a term the store has never seen", seed: Binding{"y": rdf.NewIRI("nobody")},
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}}},
		{name: "a never-seen seeded term read only by the second pattern", seed: Binding{"z": rdf.NewIRI("nobody")},
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}, {S: PVar("y"), P: PIRI("likes"), O: PVar("z")}}},
		{name: "a never-seen seeded term in a slot no pattern reads",
			seed:     Binding{"y": rdf.NewIRI("b"), "u": rdf.NewIRI("nobody")},
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}},
			want: func(*Store) []Binding { // the rows with y = b, each carrying the seeded u
				var out []Binding
				for _, b := range bruteForce(world, []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PVar("y")}}) {
					if b["y"] == rdf.NewIRI("b") {
						b["u"] = rdf.NewIRI("nobody")
						out = append(out, b)
					}
				}
				return out
			}},
		{name: "a constant unknown at Compile and interned before Match",
			patterns: []Pattern{{S: PVar("x"), P: PIRI("knows"), O: PIRI("newcomer")}, {S: PVar("x"), P: PIRI("likes"), O: PVar("y")}},
			before:   func(st *Store) { st.Add(rdf.T("a", "knows", "newcomer")) },
			want: func(*Store) []Binding {
				return bruteForce(append(slices.Clone(world), rdf.T("a", "knows", "newcomer")),
					[]Pattern{{S: PVar("x"), P: PIRI("knows"), O: PIRI("newcomer")}, {S: PVar("x"), P: PIRI("likes"), O: PVar("y")}})
			}},
		{name: "all-constant ASK that holds",
			patterns: []Pattern{{S: PIRI("a"), P: PIRI("likes"), O: PIRI("b")}, {S: PIRI("knows"), P: PIRI("likes"), O: PIRI("c")}}},
		{name: "all-constant ASK that fails",
			patterns: []Pattern{{S: PIRI("a"), P: PIRI("likes"), O: PIRI("b")}, {S: PIRI("a"), P: PIRI("likes"), O: PIRI("c")}}},
		{name: "all-constant ASK naming a never-seen term",
			patterns: []Pattern{{S: PIRI("a"), P: PIRI("likes"), O: PIRI("nobody")}}},
		{name: "a fact added between two steps",
			patterns: []Pattern{{S: PVar("a"), P: PIRI("p"), O: PVar("b")}, {S: PVar("b"), P: PIRI("q"), O: PVar("c")}},
			onRow: func(st *Store, n int) {
				if n == 1 { // the first row is a1/b1/c1, and step one has run
					st.Add(rdf.T("b2", "q", "c3")) // the other branch's second step probes after this
					st.Add(rdf.T("a3", "p", "b1")) // step one does not probe again
				}
			},
			want: func(*Store) []Binding { // the world plus the fact the later step sees
				return bruteForce(append(slices.Clone(world), rdf.T("b2", "q", "c3")),
					[]Pattern{{S: PVar("a"), P: PIRI("p"), O: PVar("b")}, {S: PVar("b"), P: PIRI("q"), O: PVar("c")}})
			}},
	} {
		st := NewStore()
		for _, tr := range world {
			st.Add(tr)
		}
		var seeded []Var
		for v := range tc.seed {
			seeded = append(seeded, v)
		}
		m := st.Compile(tc.patterns, seeded...)
		if tc.before != nil {
			tc.before(st)
		}
		row := make([]rdf.Term, len(m.Vars()))
		for i, v := range seeded {
			row[i] = tc.seed[v]
		}
		before := append([]rdf.Term(nil), row...)
		var got []Binding
		err := m.Match(context.Background(), row, tc.limit, func(row []rdf.Term) bool {
			b := Binding{}
			for i, v := range m.Vars() {
				b[v] = row[i]
			}
			got = append(got, b)
			if tc.onRow != nil {
				tc.onRow(st, len(got))
			}
			return len(got) != tc.stopAt
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !slices.Equal(row, before) {
			t.Errorf("%s: Match left the row as %v, it was passed %v", tc.name, row, before)
		}
		var full []Binding
		if tc.want != nil {
			full = tc.want(st)
		} else {
			for _, b := range bruteForce(world, tc.patterns) {
				keep := true
				for v, t := range tc.seed {
					keep = keep && b[v] == t
				}
				if keep {
					full = append(full, b)
				}
			}
		}
		want, rows := renderBindings(full), renderBindings(got)
		cut := len(want)
		if tc.limit > 0 {
			cut = min(cut, tc.limit)
		}
		if tc.stopAt > 0 {
			cut = min(cut, tc.stopAt)
		}
		if cut == len(want) {
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("%s:\n got  %q\n want %q", tc.name, rows, want)
			}
			continue
		}
		// Cut short: exactly cut distinct rows of the full answer.
		in := map[string]bool{}
		for _, r := range want {
			in[r] = true
		}
		for i, r := range rows {
			if !in[r] || (i > 0 && rows[i-1] == r) {
				t.Errorf("%s: row %q is not a distinct row of the answer %q", tc.name, r, want)
			}
		}
		if len(rows) != cut {
			t.Errorf("%s: %d rows, want %d of %d", tc.name, len(rows), cut, len(want))
		}
	}
}

// /bind compiles its pattern once per request and matches it once per
// binding row: a constant the store first sees between two rows is found
// from the next row on.
func TestMatcherFindsConstantInternedBetweenMatches(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("a", "knows", "b"))
	m := st.Compile([]Pattern{{S: PVar("x"), P: PIRI("knows"), O: PIRI("newcomer")}}, "x")
	count := func(x string) int {
		n := 0
		if err := m.Match(context.Background(), []rdf.Term{rdf.NewIRI(x)}, 0, func([]rdf.Term) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count("a"); n != 0 {
		t.Fatalf("before the write: %d rows, want 0", n)
	}
	st.Add(rdf.T("a", "knows", "newcomer"))
	if n := count("a"); n != 1 {
		t.Errorf("after the write: %d rows for a, want 1", n)
	}
	if n := count("b"); n != 0 {
		t.Errorf("after the write: %d rows for b, want 0", n)
	}
}

func TestQueryStringsWithLiteralSpaces(t *testing.T) {
	st := NewStore()
	st.Add(rdf.TL("jobs", "label", "Steve Jobs"))
	got, err := st.QueryStrings([]string{`?x label "Steve Jobs"`})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["x"].Value != "jobs" {
		t.Errorf("literal-with-space query = %v", got)
	}
}

func TestParsePatternTermQuoteErrors(t *testing.T) {
	for _, in := range []string{`"`, `"abc`, `abc"`, `"unterminated literal`} {
		if _, err := ParsePatternTerm(in); err == nil {
			t.Errorf("ParsePatternTerm(%q) should fail, parsed as non-error", in)
		}
	}
	// A well-formed literal still parses.
	got, err := ParsePatternTerm(`"ok"`)
	if err != nil || !got.Const.IsLiteral() || got.Const.Value != "ok" {
		t.Errorf(`ParsePatternTerm("ok") = %v, %v`, got, err)
	}
}

// "<>" is the zero term, the wildcard: as a constant it would turn
// "?s kb:p <>" into "?s kb:p ?anything".
func TestParsePatternRejectsEmptyIRI(t *testing.T) {
	for _, line := range []string{"?s kb:p <>", "<> kb:p ?o", "?s <> ?o ."} {
		if p, err := ParsePattern(line); err == nil {
			t.Errorf("ParsePattern(%q) = %+v, want an error", line, p)
		}
	}
}

func TestParsePatternUnclosedQuoteToEOL(t *testing.T) {
	// An unterminated literal runs to the end of the line and must surface
	// as a parse error, not silently become an IRI.
	if _, err := ParsePattern(`?x label "steve jobs`); err == nil {
		t.Error("unclosed quote running to end of line should be a parse error")
	}
	if _, err := ParsePattern(`?x " ?y`); err == nil {
		t.Error("bare quote term should be a parse error")
	}
}

func TestQueryRepeatedVariableAcrossPatterns(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("a", "p", "b"))
	st.Add(rdf.T("b", "q", "a")) // cycle a -p-> b -q-> a
	st.Add(rdf.T("b", "q", "c"))
	st.Add(rdf.T("c", "p", "d"))
	got := st.Query([]Pattern{
		{S: PVar("x"), P: PIRI("p"), O: PVar("y")},
		{S: PVar("y"), P: PIRI("q"), O: PVar("x")}, // both vars repeat
	})
	if len(got) != 1 || got[0]["x"].Value != "a" || got[0]["y"].Value != "b" {
		t.Errorf("cyclic join = %v", got)
	}
}

func TestQueryFuncLimit(t *testing.T) {
	st := buildQueryFixture()
	var rows []Binding
	err := st.QueryFunc(context.Background(), []Pattern{
		{S: PVar("x"), P: PIRI("founded"), O: PVar("c")},
	}, 2, func(b Binding) bool {
		rows = append(rows, b)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("limit 2 emitted %d rows", len(rows))
	}
	// fn returning false stops the stream before the limit.
	n := 0
	if err := st.QueryFunc(context.Background(), []Pattern{
		{S: PVar("x"), P: PIRI("founded"), O: PVar("c")},
	}, 0, func(Binding) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("fn-stop emitted %d rows, want 1", n)
	}
}

func TestQueryFuncCancellation(t *testing.T) {
	st := buildQueryFixture()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := st.QueryFunc(ctx, []Pattern{
		{S: PVar("x"), P: PVar("r"), O: PVar("y")},
	}, 0, func(Binding) bool {
		n++
		cancel() // cancel mid-stream after the first row
		return true
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n == 0 || n == st.Len() {
		t.Errorf("cancellation emitted %d of %d rows, want a strict prefix", n, st.Len())
	}
	// An already-cancelled context emits nothing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	n = 0
	if err := st.QueryFunc(ctx2, []Pattern{
		{S: PVar("x"), P: PVar("r"), O: PVar("y")},
	}, 0, func(Binding) bool { n++; return true }); err != context.Canceled {
		t.Errorf("pre-cancelled err = %v", err)
	}
	if n != 0 {
		t.Errorf("pre-cancelled context emitted %d rows", n)
	}
}

// A context that expires only after the traversal already visited every
// match must not discard the fully-computed result: callers (qcache,
// kbserve) would otherwise drop an answer they have in hand. Cancelling
// from within the callback of the final row makes the race deterministic.
func TestQueryFuncCompletionBeatsCancellation(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("jobs", "founded", "apple"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	err := st.QueryFunc(ctx, []Pattern{
		{S: PVar("x"), P: PIRI("founded"), O: PVar("c")},
	}, 0, func(Binding) bool {
		n++
		cancel() // fires "just after" the last row: traversal still completes
		return true
	})
	if err != nil {
		t.Errorf("err = %v, want nil for a traversal that completed before cancellation", err)
	}
	if n != 1 {
		t.Errorf("emitted %d rows, want 1", n)
	}
}

func TestQueryFactAddedBetweenJoinPatterns(t *testing.T) {
	// A fact added while a join runs is seen by a later pattern's probe,
	// and not by a pattern whose step has already run.
	st := NewStore()
	st.Add(rdf.T("jobs", "founded", "apple"))
	st.Add(rdf.T("gates", "founded", "microsoft"))
	st.Add(rdf.T("apple", "locatedIn", "cupertino"))
	st.Add(rdf.T("microsoft", "locatedIn", "redmond"))
	var rows []Binding
	err := st.QueryFunc(context.Background(), []Pattern{
		{S: PVar("p"), P: PIRI("founded"), O: PVar("c")},
		{S: PVar("c"), P: PIRI("locatedIn"), O: PVar("city")},
	}, 0, func(b Binding) bool {
		rows = append(rows, b)
		if len(rows) == 1 {
			// The founded step ran first (a tie goes to the first
			// pattern); the microsoft branch has yet to probe locatedIn.
			st.Add(rdf.T("microsoft", "locatedIn", "bellevue"))
			st.Add(rdf.T("wozniak", "founded", "apple"))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	got := renderBindings(rows)
	want := []string{
		"c=<apple> city=<cupertino> p=<jobs>",
		"c=<microsoft> city=<bellevue> p=<gates>",
		"c=<microsoft> city=<redmond> p=<gates>",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %q, want %q", got, want)
	}
}

func TestQueryLiteralWithQuotesAndSpaces(t *testing.T) {
	st := NewStore()
	st.Add(rdf.TL("jobs", "label", "Steve Jobs"))
	st.Add(rdf.TL("widget", "label", `the "best" widget`))
	got := st.Query([]Pattern{{S: PVar("x"), P: PIRI("label"), O: PTerm(rdf.NewLiteral(`the "best" widget`))}})
	if len(got) != 1 || got[0]["x"].Value != "widget" {
		t.Errorf("literal-with-quotes query = %v", got)
	}
}

func TestPatternEstimate(t *testing.T) {
	st := buildQueryFixture()
	founded := Pattern{S: PVar("x"), P: PIRI("founded"), O: PVar("c")}
	if got := st.PatternEstimate(founded, nil); got != 4 {
		t.Errorf("estimate(?x founded ?c) = %d, want 4", got)
	}
	bound := Binding{"c": rdf.NewIRI("apple")}
	if got := st.PatternEstimate(founded, bound); got != 2 {
		t.Errorf("estimate(?x founded apple) = %d, want 2", got)
	}
	unknown := Pattern{S: PVar("x"), P: PIRI("neverSeen"), O: PVar("c")}
	if got := st.PatternEstimate(unknown, nil); got != 0 {
		t.Errorf("estimate of unknown predicate = %d, want 0", got)
	}
}

// The planner must place a zero-cardinality pattern first so impossible
// conjunctions short-circuit without enumerating the other patterns.
func TestQueryImpossiblePatternShortCircuits(t *testing.T) {
	st := buildQueryFixture()
	got := st.Query([]Pattern{
		{S: PVar("x"), P: PVar("r"), O: PVar("y")}, // would enumerate everything
		{S: PVar("x"), P: PIRI("neverSeen"), O: PVar("z")},
	})
	if got != nil {
		t.Errorf("impossible conjunction returned %v", got)
	}
}

// ParsePattern never panics, and a pattern it accepts survives the wire:
// rendered the way internal/shardkb's FormatPattern renders it ("?name"
// for a variable, the N-Triples form for a constant) it parses back to
// itself.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{
		"?p kb:founded ?c", "<kb:jobs> <kb:founded> <kb:apple> .", `?x label "Steve Jobs"`,
		`?x says "two  spaces and a trailing one "`, `?x says "café <&>  "@fr`, `?x born "1955-02-24"^^<xsd:date>`,
		`?x says "a \"quoted\" \\ word" .`, `?x " ?y`, `?x label "steve jobs`, "only two", "?x ?x ?x", "a\tb c  d", `"s" "p" "o"`, "?",
		"0 0 \"\r\x8c\"", // found by this target: an escape next to a byte that is not UTF-8
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p, err := ParsePattern(line)
		if err != nil {
			return
		}
		render := func(pt PatternTerm) string {
			if pt.Var != "" {
				return "?" + string(pt.Var)
			}
			return pt.Const.String()
		}
		wire := render(p.S) + " " + render(p.P) + " " + render(p.O)
		if back, err := ParsePattern(wire); err != nil || back != p {
			t.Fatalf("%q parsed to %+v, whose wire form %q parses to %+v, %v", line, p, wire, back, err)
		}
	})
}

// A literal reaches ParsePatternTerm with the blanks it was written with:
// the line is cut at blanks outside quotes only.
func TestParsePatternKeepsBlanksInsideLiterals(t *testing.T) {
	for _, tc := range []struct {
		line string
		want rdf.Term
	}{
		{`?x says "two  spaces"`, rdf.NewLiteral("two  spaces")},
		{`?x says "trailing one " .`, rdf.NewLiteral("trailing one ")},
		{"?x   says\t\" tab\there \"@en", rdf.NewLangLiteral(" tab\there ", "en")},
		{`?x says "a \" quote  and \\"^^<xsd:string>  .  `, rdf.NewTypedLiteral(`a " quote  and \`, "xsd:string")},
		{`?x says " . "`, rdf.NewLiteral(" . ")},
	} {
		p, err := ParsePattern(tc.line)
		if err != nil || p.S.Var != "x" || p.P.Const != rdf.NewIRI("says") || p.O.Const != tc.want {
			t.Errorf("ParsePattern(%q) = %+v, %v; want object %v", tc.line, p, err, tc.want)
		}
	}
	for _, bad := range []string{`?x says "a" "b"`, `?x says "a"b c`, `?x says "open  `, `?x "a  b`, `?x says`} {
		if p, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q) = %+v, want an error", bad, p)
		}
	}
}
