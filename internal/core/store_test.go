package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kbharvest/internal/rdf"
)

func TestAddAndHas(t *testing.T) {
	st := NewStore()
	tr := rdf.T("yago:Steve_Jobs", "kb:founded", "yago:Apple_Inc")
	id := st.Add(tr)
	if !st.Has(tr) {
		t.Fatal("fact should be present after Add")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	// Idempotence.
	if id2 := st.Add(tr); id2 != id {
		t.Errorf("re-Add returned %d, want %d", id2, id)
	}
	if st.Len() != 1 {
		t.Errorf("Len after re-Add = %d, want 1", st.Len())
	}
	got, ok := st.Fact(id)
	if !ok || got != tr {
		t.Errorf("Fact(%d) = %v, %v", id, got, ok)
	}
}

func TestAddBatchReturnsIDsInOrder(t *testing.T) {
	st := NewStore()
	ts := []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("b", "p", "c"),
		rdf.T("a", "p", "b"), // duplicate
	}
	ids := st.AddBatch(ts)
	if len(ids) != 3 {
		t.Fatalf("got %d ids", len(ids))
	}
	if ids[0] != ids[2] {
		t.Error("duplicate triple should reuse fact id")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
}

// Term IDs are dense: after Add, AddBatch and Load, every ID in
// 1…TermCount() names a term, and that term looks up to the same ID.
func TestTermIDsAreDense(t *testing.T) {
	st := NewStore()
	checkDense := func(after string) {
		t.Helper()
		for id := ID(1); int(id) <= st.TermCount(); id++ {
			term := st.dict.terms.term(id)
			if term.IsZero() {
				t.Fatalf("after %s: ID %d of %d decodes to the zero term", after, id, st.TermCount())
			}
			if got, ok := st.dict.lookup(term); !ok || got != id {
				t.Fatalf("after %s: ID %d decodes to %v, which looks up to %d, %v", after, id, term, got, ok)
			}
		}
	}
	st.Add(rdf.T("kb:a", "kb:p", "kb:b"))
	checkDense("Add")
	st.AddBatch([]rdf.Triple{
		rdf.T("kb:b", "kb:p", "kb:c"),
		{S: rdf.NewIRI("kb:c"), P: rdf.NewIRI("kb:label"), O: rdf.NewLangLiteral("C", "en")},
		{S: rdf.NewIRI("kb:c"), P: rdf.NewIRI("kb:born"), O: rdf.NewTypedLiteral("1955", rdf.XSDInteger)},
	})
	checkDense("AddBatch")
	src := NewStore()
	for i := 0; i < 40; i++ {
		src.Add(rdf.T(fmt.Sprintf("kb:e%d", i), "kb:p", fmt.Sprintf("kb:e%d", i+1)))
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if want := 8 + 41; st.TermCount() != want {
		t.Fatalf("TermCount = %d, want %d", st.TermCount(), want)
	}
	checkDense("Load")
}

// A zero-valued term is the wildcard every pattern reads it as, so no
// write path stores one: each panics, and AddBatch before it changes
// anything.
func TestAddRefusesZeroTerm(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("kb:a", "kb:p", "kb:b"))
	zero := []rdf.Triple{
		{P: rdf.NewIRI("kb:p"), O: rdf.NewIRI("kb:a")},
		{S: rdf.NewIRI("kb:a"), O: rdf.NewIRI("kb:b")},
		{S: rdf.NewIRI("kb:a"), P: rdf.NewIRI("kb:p")},
	}
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, tr := range zero {
		panics(fmt.Sprintf("Add(%v)", tr), func() { st.Add(tr) })
		batch := []rdf.Triple{rdf.T("kb:c", "kb:p", "kb:d"), tr}
		panics(fmt.Sprintf("AddBatch(.., %v)", tr), func() { st.AddBatch(batch) })
		panics(fmt.Sprintf("AddBatchMeta(.., %v)", tr), func() { st.AddBatchMeta(batch, make([]FactInfo, 2)) })
	}
	if st.Len() != 1 || st.TermCount() != 3 {
		t.Errorf("after the refused writes: %d facts, %d terms; want 1 and 3", st.Len(), st.TermCount())
	}
}

func addFixture(st *Store) {
	st.Add(rdf.T("jobs", "founded", "apple"))
	st.Add(rdf.T("jobs", "founded", "next"))
	st.Add(rdf.T("wozniak", "founded", "apple"))
	st.Add(rdf.T("jobs", "bornIn", "sanfrancisco"))
	st.Add(rdf.TL("jobs", "label", "Steve Jobs"))
}

func TestMatchAllPatternShapes(t *testing.T) {
	st := NewStore()
	addFixture(st)
	w := rdf.Term{} // wildcard
	cases := []struct {
		name    string
		pattern rdf.Triple
		want    int
	}{
		{"spo bound", rdf.T("jobs", "founded", "apple"), 1},
		{"sp bound", rdf.Triple{S: rdf.NewIRI("jobs"), P: rdf.NewIRI("founded"), O: w}, 2},
		{"so bound", rdf.Triple{S: rdf.NewIRI("jobs"), P: w, O: rdf.NewIRI("apple")}, 1},
		{"s bound", rdf.Triple{S: rdf.NewIRI("jobs"), P: w, O: w}, 4},
		{"po bound", rdf.Triple{S: w, P: rdf.NewIRI("founded"), O: rdf.NewIRI("apple")}, 2},
		{"p bound", rdf.Triple{S: w, P: rdf.NewIRI("founded"), O: w}, 3},
		{"o bound", rdf.Triple{S: w, P: w, O: rdf.NewIRI("apple")}, 2},
		{"all wild", rdf.Triple{S: w, P: w, O: w}, 5},
		{"unknown term", rdf.T("nobody", "founded", "apple"), 0},
		{"unknown pred", rdf.Triple{S: w, P: rdf.NewIRI("nosuch"), O: w}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := len(st.Match(c.pattern)); got != c.want {
				t.Errorf("Match(%v) returned %d facts, want %d", c.pattern, got, c.want)
			}
		})
	}
}

func TestMatchFuncEarlyStop(t *testing.T) {
	st := NewStore()
	addFixture(st)
	n := 0
	st.MatchFunc(rdf.Triple{}, func(FactID, rdf.Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestObjectsSubjectsPredicates(t *testing.T) {
	st := NewStore()
	addFixture(st)
	objs := st.Objects("jobs", "founded")
	if len(objs) != 2 {
		t.Errorf("Objects = %v", objs)
	}
	subs := st.Subjects("founded", "apple")
	if len(subs) != 2 {
		t.Errorf("Subjects = %v", subs)
	}
	preds := st.Predicates()
	if len(preds) != 3 {
		t.Errorf("Predicates = %v", preds)
	}
	st.Add(rdf.T("apple", "locatedIn", "cupertino"))
	preds = st.Predicates()
	if len(preds) != 4 {
		t.Errorf("Predicates after an add = %v", preds)
	}
}

func TestStats(t *testing.T) {
	st := NewStore()
	addFixture(st)
	s := st.Stats()
	if s.Facts != 5 {
		t.Errorf("Facts = %d", s.Facts)
	}
	if s.Entities != 2 { // jobs, wozniak as IRI subjects
		t.Errorf("Entities = %d", s.Entities)
	}
	if s.Predicates != 3 {
		t.Errorf("Predicates = %d", s.Predicates)
	}
	if s.Terms != st.TermCount() {
		t.Errorf("Terms = %d, TermCount = %d", s.Terms, st.TermCount())
	}
}

func TestFactOf(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("a", "p", "b"))
	got, ok := st.FactOf(rdf.T("a", "p", "b"))
	if !ok || got != id {
		t.Errorf("FactOf = %d, %v", got, ok)
	}
	if _, ok := st.FactOf(rdf.T("a", "p", "c")); ok {
		t.Error("FactOf should miss unknown triple")
	}
}

func TestAllInsertionOrder(t *testing.T) {
	st := NewStore()
	want := []rdf.Triple{
		rdf.T("c", "p", "d"),
		rdf.T("a", "p", "b"),
		rdf.T("b", "p", "c"),
	}
	for _, tr := range want {
		st.Add(tr)
	}
	if got := st.All(); !reflect.DeepEqual(got, want) {
		t.Errorf("All = %v, want %v", got, want)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Add(rdf.T(fmt.Sprintf("s%d", w), "p", fmt.Sprintf("o%d", i)))
			}
		}(w)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Match(rdf.Triple{P: rdf.NewIRI("p")})
				st.Len()
			}
		}()
	}
	wg.Wait()
	if st.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", st.Len(), 8*200)
	}
}

// Property: for random triple sets, every pattern query agrees with a
// brute-force scan over the asserted set.
func TestMatchAgreesWithBruteForceQuick(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 50; trial++ {
		st := NewStore()
		var truth []rdf.Triple
		seen := make(map[rdf.Triple]bool)
		for i := 0; i < 40; i++ {
			tr := rdf.T(names[r.Intn(5)], names[r.Intn(5)], names[r.Intn(5)])
			if !seen[tr] {
				seen[tr] = true
				truth = append(truth, tr)
			}
			st.Add(tr)
		}
		// Random pattern: each position wildcard or a random name.
		pos := func() rdf.Term {
			if r.Intn(2) == 0 {
				return rdf.Term{}
			}
			return rdf.NewIRI(names[r.Intn(5)])
		}
		for q := 0; q < 20; q++ {
			pat := rdf.Triple{S: pos(), P: pos(), O: pos()}
			want := 0
			for _, tr := range truth {
				if matches(pat, tr) {
					want++
				}
			}
			got := len(st.Match(pat))
			if got != want {
				t.Fatalf("trial %d: Match(%v) = %d, brute force = %d", trial, pat, got, want)
			}
		}
	}
}

func matches(pat, tr rdf.Triple) bool {
	ok := func(p, v rdf.Term) bool { return p.IsZero() || p == v }
	return ok(pat.S, tr.S) && ok(pat.P, tr.P) && ok(pat.O, tr.O)
}
