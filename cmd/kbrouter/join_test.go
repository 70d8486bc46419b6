package main

// The router against a reference evaluator that shares nothing with the
// engine: nested loops over a flat []rdf.Triple, no IDs, no indexes, no
// planner. Every conjunction below must come back from every tier width
// exactly as the reference computes it.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

// naiveEval returns every solution of the conjunction over triples as a
// var -> serialized-term row; an all-constant conjunction that holds
// yields the one empty row. It gives up (ok = false) past maxRows, so a
// random cross product cannot run away.
func naiveEval(triples []rdf.Triple, patterns []core.Pattern, maxRows int) (rows []map[string]string, ok bool) {
	ok = true
	var walk func(i int, b map[string]rdf.Term)
	walk = func(i int, b map[string]rdf.Term) {
		if !ok {
			return
		}
		if i == len(patterns) {
			if len(rows) == maxRows {
				ok = false
				return
			}
			row := make(map[string]string, len(b))
			for v, t := range b {
				row[v] = t.String()
			}
			rows = append(rows, row)
			return
		}
		p := patterns[i]
		for _, tr := range triples {
			nb := make(map[string]rdf.Term, len(b)+3)
			for v, t := range b {
				nb[v] = t
			}
			match := true
			for _, pos := range [3]struct {
				pt  core.PatternTerm
				got rdf.Term
			}{{p.S, tr.S}, {p.P, tr.P}, {p.O, tr.O}} {
				switch want, bound := nb[string(pos.pt.Var)]; {
				case pos.pt.Var == "":
					match = match && pos.pt.Const == pos.got
				case bound:
					match = match && want == pos.got
				default:
					nb[string(pos.pt.Var)] = pos.got
				}
			}
			if match {
				walk(i+1, nb)
			}
		}
	}
	walk(0, map[string]rdf.Term{})
	return rows, ok
}

// hostileLiterals are objects whose serialized form needs every escape
// the two wire layers (N-Triples inside JSON) have.
var hostileLiterals = []rdf.Term{
	rdf.NewLiteral(`say "hi"`),
	rdf.NewLiteral(`back\slash`),
	rdf.NewLiteral("line\nbreak\ttab\rreturn"),
	rdf.NewLiteral("two  spaces and a trailing one "),
	rdf.NewLangLiteral("café <&>  ", "fr"),
	rdf.NewTypedLiteral("1955-02-24", "xsd:date"),
	rdf.NewLiteral(""),
	rdf.NewLiteral("<kb:e1>"), // a literal that looks like an IRI
}

// randomWorld is a small store with a heavy-tailed subject distribution,
// self-loops (for ?x p ?x), literals shared between subjects (so they
// work as join keys) and a predicate that is also a subject.
func randomWorld(rng *rand.Rand) []rdf.Triple {
	entity := func() rdf.Term {
		f := rng.Float64()
		return rdf.NewIRI(fmt.Sprintf("kb:e%d", int(f*f*14)))
	}
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	add := func(tr rdf.Triple) {
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	for i := 0; i < 90; i++ {
		tr := rdf.Triple{S: entity(), P: rdf.NewIRI(fmt.Sprintf("kb:p%d", rng.Intn(4)))}
		switch rng.Intn(4) {
		case 0:
			tr.O = hostileLiterals[rng.Intn(len(hostileLiterals))]
		case 1:
			tr.O = tr.S
		default:
			tr.O = entity()
		}
		add(tr)
	}
	add(rdf.Triple{S: rdf.NewIRI("kb:p1"), P: rdf.NewIRI("kb:p0"), O: rdf.NewIRI("kb:e0")})
	return out
}

// randomConjunction draws 1-4 patterns over the world's vocabulary:
// variables from a pool of four (so they repeat across and inside
// patterns), constants mostly taken from a fact that exists.
func randomConjunction(rng *rand.Rand, world []rdf.Triple) []core.Pattern {
	pool := []string{"a", "b", "c", "d"}
	patterns := make([]core.Pattern, 1+rng.Intn(4))
	for i := range patterns {
		tr := world[rng.Intn(len(world))]
		pick := func(existing rdf.Term, varProb float64) core.PatternTerm {
			switch f := rng.Float64(); {
			case f < varProb:
				return core.PVar(pool[rng.Intn(len(pool))])
			case f < 0.97:
				return core.PTerm(existing)
			default:
				return core.PIRI("kb:absent")
			}
		}
		patterns[i] = core.Pattern{S: pick(tr.S, 0.6), P: pick(tr.P, 0.2), O: pick(tr.O, 0.6)}
	}
	return patterns
}

type crossCheck struct {
	name     string
	patterns []core.Pattern
	limit    int
}

func mustPatterns(t *testing.T, lines ...string) []core.Pattern {
	t.Helper()
	out := make([]core.Pattern, len(lines))
	for i, l := range lines {
		p, err := core.ParsePattern(l)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// referenceAnswers runs the naive evaluator once per conjunction.
func referenceAnswers(t *testing.T, world []rdf.Triple, list []crossCheck) [][]map[string]string {
	t.Helper()
	out := make([][]map[string]string, len(list))
	for i, cc := range list {
		var ok bool
		if out[i], ok = naiveEval(world, cc.patterns, 1<<20); !ok {
			t.Fatalf("%s: reference answer too large", cc.name)
		}
	}
	return out
}

// checkAgainstNaive posts one conjunction twice and holds both public
// replies to the reference answer full (checkReply). The second must come
// from the router's cache: a repeated query is answered without the
// shards, and exactly as the first.
func checkAgainstNaive(t *testing.T, label string, rt http.Handler, cc crossCheck, full []map[string]string) {
	t.Helper()
	lines := make([]string, len(cc.patterns))
	for i, p := range cc.patterns {
		lines[i] = shardkb.FormatPattern(p)
	}
	body, _ := json.Marshal(serve.QueryRequest{Patterns: lines, Limit: cc.limit})
	for pass := 1; pass <= 2; pass++ {
		where := fmt.Sprintf("%s %s %q (pass %d)", label, cc.name, lines, pass)
		rec, resp := postRouterQuery(t, rt, string(body))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", where, rec.Code, rec.Body.String())
			return
		}
		if pass == 2 && !resp.Cached {
			t.Errorf("%s: the repeated query was not answered from the router's cache", where)
		}
		checkReply(t, where, cc, resp, full)
	}
}

// checkReply compares one public reply with the reference answer full:
// never partial, same rows (any order), sorted vars, the ask flag for an
// all-constant conjunction, and with a limit exactly min(limit, total)
// distinct rows of the full answer.
func checkReply(t *testing.T, where string, cc crossCheck, resp serve.QueryResponse, full []map[string]string) {
	t.Helper()
	if resp.Partial {
		t.Errorf("%s: spurious partial flag", where)
	}
	if !serve.HasVars(cc.patterns) {
		if resp.Ask == nil || *resp.Ask != (len(full) > 0) || resp.Count != 0 || len(resp.Rows) != 0 {
			t.Errorf("%s: ask = %v, reference says %v", where, resp.Ask, len(full) > 0)
		}
		return
	}
	want, got := canonical(full), canonical(resp.Rows)
	if resp.Count != len(got) || resp.Ask != nil {
		t.Errorf("%s: count %d for %d rows, ask %v", where, resp.Count, len(got), resp.Ask)
	}
	if len(got) > 0 {
		var vars []string
		for v := range resp.Rows[0] {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		if !reflect.DeepEqual(resp.Vars, vars) {
			t.Errorf("%s: vars = %v, rows carry %v", where, resp.Vars, vars)
		}
	}
	if cc.limit > 0 && cc.limit < len(want) {
		in := make(map[string]bool, len(want))
		for _, row := range want {
			in[row] = true
		}
		for i, row := range got {
			if !in[row] || (i > 0 && got[i-1] == row) {
				t.Errorf("%s: limited row %q is not a distinct row of the answer", where, row)
			}
		}
		if len(got) != cc.limit {
			t.Errorf("%s: %d rows under limit %d of %d", where, len(got), cc.limit, len(want))
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %d rows, reference has %d\n got  %q\n want %q", where, len(got), len(want), got, want)
	}
}

// The cross-check at every tier width: 1/2/4 shards x 1/2 replicas, each
// replica behind a (quiet) faultkb proxy.
func TestRouterMatchesNaiveEvaluator(t *testing.T) {
	// A fixed world for the named shapes.
	var world []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		world = append(world, rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: o})
	}
	for c := 0; c < 12; c++ {
		add(fmt.Sprintf("kb:co%d", c), "kb:locatedIn", rdf.NewIRI(fmt.Sprintf("kb:city%d", c%4)))
		add(fmt.Sprintf("kb:co%d", c), "kb:motto", hostileLiterals[c%len(hostileLiterals)])
	}
	for p := 0; p < 40; p++ {
		add(fmt.Sprintf("kb:person%d", p), "kb:worksAt", rdf.NewIRI(fmt.Sprintf("kb:co%d", p%12)))
		add(fmt.Sprintf("kb:person%d", p), "kb:bornIn", rdf.NewIRI(fmt.Sprintf("kb:city%d", p%5)))
		add(fmt.Sprintf("kb:person%d", p), "kb:says", hostileLiterals[p%len(hostileLiterals)])
		if p%10 == 0 {
			add(fmt.Sprintf("kb:person%d", p), "kb:knows", rdf.NewIRI(fmt.Sprintf("kb:person%d", p)))
		}
		add(fmt.Sprintf("kb:person%d", p), "kb:knows", rdf.NewIRI(fmt.Sprintf("kb:person%d", (p+1)%40)))
	}
	named := []crossCheck{
		{"coworkers", mustPatterns(t, "<kb:person3> <kb:worksAt> ?c", "?q <kb:worksAt> ?c", "?q <kb:bornIn> ?city"), 0},
		{"join_city", mustPatterns(t, "?p <kb:bornIn> <kb:city2>", "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?w"), 0},
		{"repeated variable as a later step", mustPatterns(t, "?x <kb:worksAt> <kb:co10>", "?x <kb:knows> ?x"), 0},
		{"repeated variable as the first step", mustPatterns(t, "?x <kb:knows> ?x", "?x <kb:bornIn> ?city"), 0},
		{"hostile literals as join keys", mustPatterns(t, "?p <kb:says> ?words", "?c <kb:motto> ?words"), 0},
		{"hostile literal constant, then a join on it", []core.Pattern{
			{S: core.PVar("p"), P: core.PIRI("kb:says"), O: core.PTerm(hostileLiterals[2])},
			{S: core.PVar("p"), P: core.PIRI("kb:worksAt"), O: core.PVar("c")},
			{S: core.PVar("c"), P: core.PIRI("kb:motto"), O: core.PVar("m")}}, 0},
		{"double-space and trailing-space literal constant, then a join on it", []core.Pattern{
			{S: core.PVar("p"), P: core.PIRI("kb:says"), O: core.PTerm(hostileLiterals[3])},
			{S: core.PVar("p"), P: core.PIRI("kb:worksAt"), O: core.PVar("c")},
			{S: core.PVar("c"), P: core.PIRI("kb:motto"), O: core.PVar("m")}}, 0},
		{"trailing spaces before a language tag, alone in the request", []core.Pattern{
			{S: core.PVar("c"), P: core.PIRI("kb:motto"), O: core.PTerm(hostileLiterals[4])}}, 0},
		{"all-constant conjunct that holds", mustPatterns(t, "?p <kb:worksAt> ?c", "<kb:co1> <kb:locatedIn> <kb:city1>", "?c <kb:locatedIn> <kb:city1>"), 0},
		{"all-constant conjunct that fails", mustPatterns(t, "?p <kb:worksAt> ?c", "<kb:co1> <kb:locatedIn> <kb:city2>"), 0},
		{"all constants: ask true", mustPatterns(t, "<kb:person3> <kb:worksAt> <kb:co3>", "<kb:co3> <kb:locatedIn> <kb:city3>"), 0},
		{"all constants: ask false", mustPatterns(t, "<kb:person3> <kb:worksAt> <kb:co3>", "<kb:co3> <kb:locatedIn> <kb:city0>"), 0},
		{"empty intermediate result", mustPatterns(t, "?p <kb:worksAt> <kb:nowhere>", "?p <kb:bornIn> ?city", "?city <kb:locatedIn> ?k"), 0},
		{"empty last step", mustPatterns(t, "?p <kb:worksAt> ?c", "?c <kb:acquired> ?d"), 0},
		{"variable predicate", mustPatterns(t, "<kb:person7> ?rel ?o", "?o <kb:locatedIn> ?city"), 0},
		{"cross product", mustPatterns(t, "?c <kb:locatedIn> <kb:city0>", "?p <kb:bornIn> <kb:city4>"), 0},
		{"join with limit", mustPatterns(t, "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?city"), 7},
		{"join with a limit above the answer", mustPatterns(t, "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?city"), 1000},
		{"single pattern with limit", mustPatterns(t, "?p <kb:worksAt> ?c"), 5},
	}

	rng := rand.New(rand.NewSource(20231))
	random := randomWorld(rng)
	var drawn []crossCheck
	for len(drawn) < 200 {
		cc := crossCheck{name: fmt.Sprintf("random #%d", len(drawn)), patterns: randomConjunction(rng, random)}
		if rng.Intn(5) == 0 {
			cc.limit = 1 + rng.Intn(6)
		}
		// Redraw runaway cross products.
		if _, ok := naiveEval(random, cc.patterns, 3000); ok {
			drawn = append(drawn, cc)
		}
	}
	// The draws must put the literals that whitespace splitting used to
	// mangle into request lines as constants, or this test stopped
	// covering them.
	for _, lit := range []rdf.Term{hostileLiterals[3], hostileLiterals[4]} {
		asConstant := false
		for _, cc := range drawn {
			for _, p := range cc.patterns {
				asConstant = asConstant || (p.O.Var == "" && p.O.Const == lit)
			}
		}
		if !asConstant {
			t.Fatalf("no random conjunction carries %s as a constant", lit)
		}
	}

	namedWant, drawnWant := referenceAnswers(t, world, named), referenceAnswers(t, random, drawn)
	for _, n := range []int{1, 2, 4} {
		for _, r := range []int{1, 2} {
			label := fmt.Sprintf("%d shards x %d replicas:", n, r)
			st := core.NewStore()
			for _, tr := range world {
				st.Add(tr)
			}
			rt, _ := startReplicatedTier(t, st, n, r, shardkb.Options{})
			for i, cc := range named {
				checkAgainstNaive(t, label, rt, cc, namedWant[i])
			}
			st = core.NewStore()
			for _, tr := range random {
				st.Add(tr)
			}
			rt, _ = startReplicatedTier(t, st, n, r, shardkb.Options{})
			for i, cc := range drawn {
				checkAgainstNaive(t, label, rt, cc, drawnWant[i])
			}
			if t.Failed() {
				return
			}
		}
	}
}

// The reference evaluator itself, on answers small enough to write down.
func TestNaiveEval(t *testing.T) {
	world := []rdf.Triple{
		rdf.T("kb:a", "kb:p", "kb:b"), rdf.T("kb:b", "kb:p", "kb:c"), rdf.T("kb:c", "kb:p", "kb:c"),
	}
	for _, tc := range []struct {
		lines []string
		want  []string
	}{
		{[]string{"?x kb:p ?y", "?y kb:p ?z"}, []string{"x=<kb:a> y=<kb:b> z=<kb:c>", "x=<kb:b> y=<kb:c> z=<kb:c>", "x=<kb:c> y=<kb:c> z=<kb:c>"}},
		{[]string{"?x kb:p ?x"}, []string{"x=<kb:c>"}},
		{[]string{"kb:a kb:p kb:b"}, []string{""}},
		{[]string{"kb:a kb:p kb:c"}, []string{}},
	} {
		rows, ok := naiveEval(world, mustPatterns(t, tc.lines...), 100)
		if got := canonical(rows); !ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: %q (ok %v), want %q", tc.lines, got, ok, tc.want)
		}
	}
	if _, ok := naiveEval(world, mustPatterns(t, "?a ?b ?c", "?d ?e ?f"), 8); ok {
		t.Error("a 9-row answer fit a cap of 8")
	}
	if strings.Join(canonical(nil), "") != "" {
		t.Error("canonical(nil) is not empty")
	}
}
