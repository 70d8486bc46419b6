package shardkb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/faultkb"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
)

// joinWorld is a small KB with the relations kbbench's join shapes walk:
// companies acquire each other, create products and sit in cities, people
// found them, work at them and are born in cities.
func joinWorld() []rdf.Triple {
	var ts []rdf.Triple
	add := func(s, p, o string) { ts = append(ts, rdf.T(s, p, o)) }
	for c := 0; c < 24; c++ {
		add(fmt.Sprintf("kb:co%d", c), "kb:locatedIn", fmt.Sprintf("kb:city%d", c%5))
		if c%3 == 0 {
			add(fmt.Sprintf("kb:co%d", c), "kb:acquired", fmt.Sprintf("kb:co%d", (c+7)%24))
		}
		add(fmt.Sprintf("kb:co%d", c), "kb:created", fmt.Sprintf("kb:product%d", c))
		add(fmt.Sprintf("kb:co%d", c), "kb:created", fmt.Sprintf("kb:product%d", c+100))
	}
	for p := 0; p < 90; p++ {
		add(fmt.Sprintf("kb:person%d", p), "kb:worksAt", fmt.Sprintf("kb:co%d", p%24))
		if p%2 == 0 { // fewer bornIn than worksAt facts, so bornIn estimates lower
			add(fmt.Sprintf("kb:person%d", p), "kb:bornIn", fmt.Sprintf("kb:city%d", p%7))
		}
		if p%9 == 0 {
			add(fmt.Sprintf("kb:person%d", p), "kb:founded", fmt.Sprintf("kb:co%d", p%24))
		}
	}
	for c := 0; c < 7; c++ {
		add(fmt.Sprintf("kb:city%d", c), "kb:locatedIn", "kb:country0")
	}
	return ts
}

func parsePatterns(t *testing.T, lines ...string) []core.Pattern {
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

// rowStrings renders positional rows as sorted "var=term" lines, the
// variables sorted within a line, so row sets compare across engines.
func rowStrings(rows Rows) []string {
	out := make([]string, rows.N)
	w := len(rows.Vars)
	for i := range out {
		parts := make([]string, w)
		for j, v := range rows.Vars {
			parts[j] = string(v) + "=" + rows.Cells[i*w+j]
		}
		sort.Strings(parts)
		out[i] = strings.Join(parts, " ")
	}
	sort.Strings(out)
	return out
}

func bindingStrings(bs []core.Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		parts := make([]string, 0, len(b))
		for v, term := range b {
			parts = append(parts, string(v)+"="+term.String())
		}
		sort.Strings(parts)
		out[i] = strings.Join(parts, " ")
	}
	sort.Strings(out)
	return out
}

func mergedStore(triples []rdf.Triple) *core.Store {
	st := core.NewStore()
	for _, tr := range triples {
		st.Add(tr)
	}
	return st
}

// subset reports whether every element of the sorted slice a is in b.
func subset(a, b []string) bool {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	for _, s := range a {
		if !in[s] {
			return false
		}
	}
	return true
}

// The join shapes of kbbench — the three 2-pattern analytic joins and the
// two 3-pattern shapes it so far keeps off the router — return what one
// merged store returns and cost at most shards x (1 + steps) physical
// RPCs on a healthy tier: one /estimate round and one /bind per shard per
// step, however many bindings flow through. A point lookup stays 1 RPC.
func TestJoinRPCBudget(t *testing.T) {
	world := joinWorld()
	merged := mergedStore(world)
	shapes := [][]string{
		{"?a <kb:acquired> ?b", "?b <kb:locatedIn> ?city"},
		{"?c <kb:created> ?x", "?c <kb:locatedIn> ?city"},
		{"?p <kb:founded> ?c", "?c <kb:locatedIn> ?city"},
		{"<kb:person4> <kb:worksAt> ?c", "?q <kb:worksAt> ?c", "?q <kb:bornIn> ?city"},         // coworkers
		{"?p <kb:bornIn> <kb:city3>", "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?w"},            // join_city
		{"<kb:person4> <kb:worksAt> ?c", "?c <kb:locatedIn> ?city", "?city <kb:locatedIn> ?k"}, // chain3
	}
	for _, n := range []int{1, 2, 4} {
		urls, _ := startShards(t, world, n)
		c := mustClient(t, urls, Options{})
		for _, lines := range shapes {
			patterns := parsePatterns(t, lines...)
			before := c.Stats().RPCs
			rows, err := c.Join(context.Background(), patterns, 0)
			if err != nil {
				t.Fatalf("n=%d %q: %v", n, lines, err)
			}
			spent := int(c.Stats().RPCs - before)
			if budget := n * (1 + len(patterns)); spent > budget {
				t.Errorf("n=%d %q: %d RPCs, budget %d", n, lines, spent, budget)
			}
			want := bindingStrings(merged.Query(patterns))
			if got := rowStrings(rows); !reflect.DeepEqual(got, want) || len(want) == 0 {
				t.Errorf("n=%d %q: %d rows, merged store has %d", n, lines, len(got), len(want))
			}
			if rows.Partial {
				t.Errorf("n=%d %q: spurious partial flag", n, lines)
			}
		}
		before := c.Stats().RPCs
		res, err := c.Pattern(context.Background(), parsePatterns(t, "<kb:person4> ?p ?o")[0], 0)
		if err != nil || len(res.Bindings) != 2 || c.Stats().RPCs-before != 1 {
			t.Errorf("n=%d: point lookup: %d rows, %d RPCs, err %v; want 2 rows in exactly 1 RPC",
				n, len(res.Bindings), c.Stats().RPCs-before, err)
		}
	}
}

// recordBinds fronts a shard and records the pattern of every /bind it
// forwards, in arrival order.
func recordBinds(t *testing.T, shardURL string) (string, func() []string) {
	var mu sync.Mutex
	var seen []string
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/bind" {
			var req struct {
				Pattern []string   `json:"pattern"`
				Rows    [][]string `json:"rows"`
			}
			if err := json.Unmarshal(body, &req); err == nil {
				mu.Lock()
				seen = append(seen, fmt.Sprintf("%s [%d rows]", strings.Join(req.Pattern, " "), len(req.Rows)))
				mu.Unlock()
			}
		}
		resp, err := http.Post(shardURL+r.URL.Path, "application/json", strings.NewReader(string(body)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	return proxy.URL, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

// The plan is connected-first: after the first hop binds ?c, the pattern
// sharing ?c runs before the lower-estimate pattern that shares nothing
// yet, so no step is a cross product and only distinct bindings travel.
func TestJoinPlansConnectedFirst(t *testing.T) {
	world := joinWorld()
	urls, _ := startShards(t, world, 1)
	url, binds := recordBinds(t, urls[0])
	c := mustClient(t, []string{url}, Options{})
	patterns := parsePatterns(t, "?q <kb:bornIn> ?city", "?q <kb:worksAt> ?c", "<kb:person4> <kb:worksAt> ?c")
	ests, err := c.Estimates(context.Background(), patterns)
	if err != nil || !(ests[2] < ests[0] && ests[0] < ests[1]) {
		t.Fatalf("estimates %v (err %v): the test needs hop < bornIn < worksAt", ests, err)
	}
	rows, err := c.Join(context.Background(), patterns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := bindingStrings(mergedStore(world).Query(patterns)); !reflect.DeepEqual(rowStrings(rows), want) {
		t.Errorf("rows = %q, want %q", rowStrings(rows), want)
	}
	want := []string{
		"<kb:person4> <kb:worksAt> ?c [1 rows]",
		"?q <kb:worksAt> ?c [1 rows]",   // the one distinct company
		"?q <kb:bornIn> ?city [4 rows]", // its four employees
	}
	if got := binds(); !reflect.DeepEqual(got, want) {
		t.Errorf("bind steps:\n got  %q\n want %q", got, want)
	}
}

// A fault on a bind step follows the client's partial policy: by default
// the join fails with ErrPartial; AllowPartial returns the rows the live
// shards could complete, flagged, and never a row the exact answer lacks.
func TestBindStepFaultPolicies(t *testing.T) {
	world := joinWorld()
	patterns := parsePatterns(t, "?p <kb:founded> ?c", "?c <kb:locatedIn> ?city")
	exact := bindingStrings(mergedStore(world).Query(patterns))
	for _, lax := range []bool{false, true} {
		groups, injectors := startReplicatedTier(t, world, 2, 1, testSeeds)
		// Shard 1 answers its /estimate, then drops everything: the
		// failure lands on the first bind step.
		injectors[1][0].SetScript([]faultkb.Step{{N: 1}, {N: 1, Plan: faultkb.Plan{DropRate: 1}}})
		c := mustClient(t, groups, Options{AllowPartial: lax, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
		rows, err := c.Join(context.Background(), patterns, 0)
		if !lax {
			if !errors.Is(err, ErrPartial) {
				t.Errorf("strict: err = %v, want ErrPartial", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("AllowPartial: %v", err)
		}
		got := rowStrings(rows)
		if !rows.Partial || len(got) == 0 || len(got) >= len(exact) || !subset(got, exact) {
			t.Errorf("AllowPartial: partial=%v with %d rows of %d exact; want a flagged proper subset", rows.Partial, len(got), len(exact))
		}
		if st := c.Stats(); st.PartialFailures == 0 {
			t.Error("AllowPartial: no partial failure counted")
		}
	}
}

// A replica that dies between the estimate round and the bind steps is
// invisible when its shard has a sibling: the step retries there and the
// join returns the exact answer, unflagged.
func TestBindStepFailsOverToSiblingReplica(t *testing.T) {
	world := joinWorld()
	patterns := parsePatterns(t, "?p <kb:bornIn> <kb:city3>", "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?w")
	exact := bindingStrings(mergedStore(world).Query(patterns))
	groups, injectors := startReplicatedTier(t, world, 2, 2, testSeeds)
	for _, group := range injectors {
		// Whatever this replica is asked first succeeds; then it is dead.
		group[0].SetScript([]faultkb.Step{{N: 1}, {N: 1, Plan: faultkb.Plan{DropRate: 1}}})
	}
	c := mustClient(t, groups, Options{RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	for round := 0; round < 3; round++ {
		rows, err := c.Join(context.Background(), patterns, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := rowStrings(rows); !reflect.DeepEqual(got, exact) || rows.Partial {
			t.Errorf("round %d: %d rows (partial %v), want the exact %d", round, len(got), rows.Partial, len(exact))
		}
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Error("no retry recorded: the kill did not bite")
	}
}

// A /bind reply that is not exactly what was asked for — an unparsable or
// non-canonical term, a from index past the rows sent, a ragged row, the
// wrong variables, broken JSON — makes its shard a failed shard, as an
// unparsable term in a /query reply does.
func TestMalformedBindReplyIsAFailedShard(t *testing.T) {
	world := joinWorld()
	patterns := parsePatterns(t, "?p <kb:founded> ?c", "?c <kb:locatedIn> ?city")
	const n, bad = 2, 1
	for name, reply := range map[string]string{
		"unparsable term":    `{"vars":["p","c"],"from":[0],"rows":[["\"unterminated","<kb:co1>"]]}`,
		"non-canonical term": `{"vars":["p","c"],"from":[0],"rows":[["<kb:person0> ","<kb:co1>"]]}`,
		"empty IRI":          `{"vars":["p","c"],"from":[0],"rows":[["<>","<kb:co1>"]]}`,
		"from out of range":  `{"vars":["p","c"],"from":[1],"rows":[["<kb:person0>","<kb:co1>"]]}`,
		"ragged row":         `{"vars":["p","c"],"from":[0,0],"rows":[["<kb:person0>","<kb:co1>"],["<kb:person0>"]]}`,
		"missing from":       `{"vars":["p","c"],"rows":[["<kb:person0>","<kb:co1>"]]}`,
		"wrong variables":    `{"vars":["c","p"],"from":[0],"rows":[["<kb:person0>","<kb:co1>"]]}`,
		"too few variables":  `{"vars":["p"],"from":[0],"rows":[["<kb:person0>"]]}`,
		"not json":           `<html>`,
	} {
		urls, _ := startShards(t, world, n)
		real := urls[bad]
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/bind" {
				resp, err := http.Post(real+r.URL.Path, "application/json", r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				defer resp.Body.Close()
				io.Copy(w, resp.Body)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, reply)
		}))
		t.Cleanup(stub.Close)
		urls[bad] = stub.URL

		strict := mustClient(t, urls, Options{})
		if _, err := strict.Join(context.Background(), patterns, 0); !errors.Is(err, ErrPartial) {
			t.Errorf("%s, strict: err = %v, want ErrPartial", name, err)
		}
		if st := strict.Stats(); st.PartialFailures != 1 {
			t.Errorf("%s, strict: partial failures = %d, want 1", name, st.PartialFailures)
		}
		lax := mustClient(t, urls, Options{AllowPartial: true})
		rows, err := lax.Join(context.Background(), patterns, 0)
		if err != nil {
			t.Errorf("%s, AllowPartial: %v", name, err)
			continue
		}
		// Shard 0's founders joined to the cities shard 0 knows; the stub
		// contributed nothing, so every row must be in the exact answer.
		exact := bindingStrings(mergedStore(world).Query(patterns))
		if got := rowStrings(rows); !rows.Partial || !subset(got, exact) || len(got) >= len(exact) {
			t.Errorf("%s, AllowPartial: partial=%v, %d rows of %d exact", name, rows.Partial, len(got), len(exact))
		}
	}
}

// A step with more binding rows than fit one request body is split into
// several requests per shard and still returns the exact answer; rows the
// step was given twice come back twice.
func TestBindSplitsOversizedStep(t *testing.T) {
	const distinct = 3000
	long := strings.Repeat("x", 400) // 3000 rows x ~400 bytes > serve.MaxRequestBytes
	company := func(i int) string { return fmt.Sprintf("kb:co%d-%s", i, long) }
	var world []rdf.Triple
	located := map[int]bool{0: true, distinct - 1: true}
	for i := 0; i < distinct; i += 97 {
		located[i] = true
	}
	for i := range located {
		world = append(world, rdf.T(company(i), "kb:locatedIn", fmt.Sprintf("kb:city%d", i%5)))
	}
	in := Rows{Vars: []core.Var{"tag", "c"}}
	for i := 0; i < distinct; i++ {
		in.Cells = append(in.Cells, fmt.Sprintf("<kb:tag%d>", i), rdf.NewIRI(company(i)).String())
	}
	in.Cells = append(in.Cells, "<kb:again>", rdf.NewIRI(company(0)).String()) // a duplicate binding
	in.N = distinct + 1
	var want []string
	for i := range located {
		want = append(want, fmt.Sprintf("c=<%s> city=<kb:city%d> tag=<kb:tag%d>", company(i), i%5, i))
	}
	want = append(want, fmt.Sprintf("c=<%s> city=<kb:city0> tag=<kb:again>", company(0)))
	sort.Strings(want)

	for _, n := range []int{1, 2} {
		urls, counters := startShards(t, world, n)
		c := mustClient(t, urls, Options{})
		out, err := c.Bind(context.Background(), parsePatterns(t, "?c <kb:locatedIn> ?city")[0], in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := rowStrings(out); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: %d rows, want %d", n, len(got), len(want))
		}
		requests := 0
		for _, ctr := range counters {
			requests += int(ctr.Load())
		}
		if requests < 2 || (n == 1 && requests > 3) {
			t.Errorf("n=%d: %d requests; want the step split, into no more pieces than its size needs", n, requests)
		}
	}
}

// Bind de-duplicates before it sends and routes by subject: a bound
// subject goes to its owner shard only, a constant subject to one shard,
// anything else to all of them.
func TestBindRoutesRowsToOwnerShards(t *testing.T) {
	world := joinWorld()
	const n = 4
	urls, counters := startShards(t, world, n)
	c := mustClient(t, urls, Options{})
	requests := func() (total int, perShard []int) {
		for _, ctr := range counters {
			perShard = append(perShard, int(ctr.Swap(0)))
			total += perShard[len(perShard)-1]
		}
		return total, perShard
	}
	// 30 rows, 3 distinct companies.
	in := Rows{Vars: []core.Var{"c"}}
	owners := map[int]bool{}
	for i := 0; i < 30; i++ {
		co := rdf.NewIRI(fmt.Sprintf("kb:co%d", i%3))
		in.Cells = append(in.Cells, co.String())
		owners[ShardOf(co, n)] = true
	}
	in.N = 30
	out, err := c.Bind(context.Background(), parsePatterns(t, "?c <kb:locatedIn> ?city")[0], in)
	if err != nil || out.N != 30 {
		t.Fatalf("bound subject: %d rows, err %v; want 30", out.N, err)
	}
	if total, per := requests(); total != len(owners) {
		t.Errorf("bound subject: requests per shard %v, want one to each of the %d owners", per, len(owners))
	}
	out, err = c.Bind(context.Background(), parsePatterns(t, "?q <kb:worksAt> ?c")[0], in)
	if err != nil || out.N == 0 {
		t.Fatalf("bound object: %d rows, err %v", out.N, err)
	}
	if total, per := requests(); total != n {
		t.Errorf("bound object: requests per shard %v, want one to every shard", per)
	}
	out, err = c.Bind(context.Background(), parsePatterns(t, "<kb:co1> <kb:locatedIn> ?city")[0], in)
	if err != nil || out.N != 30 {
		t.Fatalf("constant subject: %d rows, err %v; want 30 (one city for each input row)", out.N, err)
	}
	if total, per := requests(); total != 1 {
		t.Errorf("constant subject: requests per shard %v, want exactly one", per)
	}
	st := c.Stats()
	if st.FastPath != 2 || st.Scatters != 1 {
		t.Errorf("fast path %d, scatters %d; want 2 and 1", st.FastPath, st.Scatters)
	}
}

// The executor hashes wire strings directly; that must be the builder's
// partition function.
func TestShardOfWireIsFNV1a(t *testing.T) {
	for _, term := range []rdf.Term{
		rdf.NewIRI("kb:apple"), rdf.NewIRI(""), rdf.NewBlank("b1"), rdf.NewLiteral("café \"x\"\n"),
		rdf.NewLangLiteral("Steve Jobs", "en"), rdf.NewTypedLiteral("1955-02-24", "xsd:date"),
	} {
		for _, n := range []int{1, 2, 3, 4, 7, 64} {
			h := fnv.New64a()
			io.WriteString(h, term.String())
			want := int(h.Sum64() % uint64(n))
			if got := ShardOf(term, n); got != want {
				t.Errorf("ShardOf(%s, %d) = %d, want %d", term, n, got, want)
			}
			if got := shardOfWire(term.String(), n); got != want {
				t.Errorf("shardOfWire(%s, %d) = %d, want %d", term, n, got, want)
			}
		}
	}
}

func TestCheckWireTerm(t *testing.T) {
	for _, ok := range []string{`<kb:a>`, `_:b1`, `"x"`, `"a \"q\" \\ \n"@en`, `"1"^^<xsd:int>`} {
		if err := checkWireTerm(ok); err != nil {
			t.Errorf("checkWireTerm(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{``, `<>`, `<kb:a> `, ` <kb:a>`, `_:b1 `, `"x" `, `"x`, `kb:a`, `"a` + "\n" + `b"`, `<kb:a> <kb:b>`} {
		if err := checkWireTerm(bad); err == nil {
			t.Errorf("checkWireTerm(%q) accepted", bad)
		}
	}
}

// A conjunction emptied before all its variables were bound still names
// them: rows without variables are how an ASK conjunction reads.
func TestJoinEmptiedEarlyNamesItsVariables(t *testing.T) {
	urls, _ := startShards(t, joinWorld(), 2)
	c := mustClient(t, urls, Options{})
	rows, err := c.Join(context.Background(), parsePatterns(t, "<kb:co1> <kb:locatedIn> <kb:nowhere>", "?p <kb:worksAt> ?c"), 0)
	if err != nil || rows.N != 0 || len(rows.Vars) != 2 {
		t.Errorf("rows = %+v, err %v; want no rows over ?p and ?c", rows, err)
	}
	rows, err = c.Join(context.Background(), parsePatterns(t, "<kb:co1> <kb:locatedIn> <kb:nowhere>", "<kb:co1> <kb:locatedIn> <kb:city1>"), 0)
	if err != nil || rows.N != 0 || len(rows.Vars) != 0 {
		t.Errorf("ask rows = %+v, err %v; want no rows and no variables", rows, err)
	}
}

// A replica whose snapshot failed verification holds a torn store and
// refuses every data request with 503 — transient to the client, so the
// healthy sibling answers and no short result is ever served.
func TestTornReplicaIsBypassed(t *testing.T) {
	world := joinWorld()
	healthy := httptest.NewServer(serve.NewServer(mergedStore(world), serve.Options{}))
	t.Cleanup(healthy.Close)
	torn := httptest.NewServer(serve.NewServer(mergedStore(world[:len(world)/2]), serve.Options{LoadError: errors.New("crc mismatch")}))
	t.Cleanup(torn.Close)
	c := mustClient(t, []string{torn.URL + "|" + healthy.URL}, Options{RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	patterns := parsePatterns(t, "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?city")
	exact := bindingStrings(mergedStore(world).Query(patterns))
	for round := 0; round < 4; round++ { // rotation starts on each replica in turn
		rows, err := c.Join(context.Background(), patterns, 0)
		if err != nil || rows.Partial || !reflect.DeepEqual(rowStrings(rows), exact) {
			t.Fatalf("round %d: %d rows (partial %v, err %v), want the exact %d", round, rows.N, rows.Partial, err, len(exact))
		}
		res, err := c.Pattern(context.Background(), patterns[0], 0)
		if err != nil || res.Partial || len(res.Bindings) != 90 {
			t.Fatalf("round %d: pattern returned %d rows (err %v), want 90", round, len(res.Bindings), err)
		}
	}
	if st := c.Stats(); st.Retries == 0 || st.Shards[0].Replicas[0].Errors == 0 {
		t.Errorf("stats %+v: the torn replica was never tried and refused", st)
	}
}
