package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kbharvest/internal/rdf"
)

// postingLen inspects the spo posting for (s, p) — test-only visibility
// into the index layer.
func (st *Store) postingLen(s, p string) int {
	sid, ok1 := st.dict.lookup(rdf.NewIRI(s))
	pid, ok2 := st.dict.lookup(rdf.NewIRI(p))
	if !ok1 || !ok2 {
		return 0
	}
	return st.spo.pairCount(sid, pid)
}

// Re-asserting stored facts is the only churn an append-only store has:
// by Add, by AddBatch and from several goroutines at once, it files no
// fact twice, so the posting stays at the facts it holds.
func TestPostingBoundedUnderChurn(t *testing.T) {
	st := NewStore()
	var facts []rdf.Triple
	for i := 0; i < 32; i++ {
		facts = append(facts, rdf.T("kb:hub", "kb:p", fmt.Sprintf("kb:o%d", i)))
	}
	st.AddBatch(facts)
	pat := rdf.Triple{S: rdf.NewIRI("kb:hub"), P: rdf.NewIRI("kb:p")}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for cycle := 0; cycle < 50; cycle++ {
				if g%2 == 0 {
					st.AddBatch(facts)
					continue
				}
				for _, tr := range facts {
					st.Add(tr)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(st.Match(pat)); got != 32 {
		t.Errorf("matches = %d, want 32", got)
	}
	if got := st.postingLen("kb:hub", "kb:p"); got != 32 {
		t.Errorf("posting holds %d IDs after 200 re-assertions of 32 facts, want 32", got)
	}
}

// WriteGen advances once per call that inserts a new fact, and never for
// a call that inserts none: a reply cache keyed on it recomputes after
// every write and only after one.
func TestWriteGenAdvancesOnlyOnInserts(t *testing.T) {
	stored := rdf.T("kb:a", "kb:p", "kb:b")
	info := FactInfo{Confidence: 0.5}
	for _, tc := range []struct {
		name  string
		write func(st *Store)
		adv   uint64
	}{
		{"Add of a new fact", func(st *Store) { st.Add(rdf.T("kb:c", "kb:p", "kb:d")) }, 1},
		{"Add of a stored fact", func(st *Store) { st.Add(stored) }, 0},
		{"AddBatch of new facts", func(st *Store) {
			st.AddBatch([]rdf.Triple{rdf.T("kb:c", "kb:p", "kb:d"), rdf.T("kb:e", "kb:q", "kb:f")})
		}, 1},
		{"AddBatch of one new fact among stored ones", func(st *Store) {
			st.AddBatch([]rdf.Triple{stored, rdf.T("kb:c", "kb:p", "kb:d"), stored})
		}, 1},
		{"AddBatch of stored facts only", func(st *Store) { st.AddBatch([]rdf.Triple{stored, stored}) }, 0},
		{"empty AddBatch", func(st *Store) { st.AddBatch(nil) }, 0},
		{"AddBatchMeta of a new fact", func(st *Store) {
			st.AddBatchMeta([]rdf.Triple{rdf.T("kb:c", "kb:p", "kb:d")}, []FactInfo{info})
		}, 1},
		{"AddBatchMeta of a stored fact", func(st *Store) {
			st.AddBatchMeta([]rdf.Triple{stored}, []FactInfo{info})
		}, 0},
	} {
		st := NewStore()
		st.Add(stored)
		g0 := st.WriteGen()
		tc.write(st)
		if got := st.WriteGen() - g0; got != tc.adv {
			t.Errorf("%s: WriteGen advanced by %d, want %d", tc.name, got, tc.adv)
		}
	}
}

func TestEstimateMatches(t *testing.T) {
	st := NewStore()
	for i := 0; i < 10; i++ {
		st.Add(rdf.T("kb:s", "kb:p", fmt.Sprintf("kb:o%d", i)))
	}
	st.Add(rdf.T("kb:s", "kb:q", "kb:o0"))
	if got := st.EstimateMatches(rdf.Triple{S: rdf.NewIRI("kb:s"), P: rdf.NewIRI("kb:p")}); got != 10 {
		t.Errorf("estimate (s p ?) = %d, want 10", got)
	}
	if got := st.EstimateMatches(rdf.Triple{S: rdf.NewIRI("kb:s")}); got != 11 {
		t.Errorf("estimate (s ? ?) = %d, want 11", got)
	}
	if got := st.EstimateMatches(rdf.Triple{}); got != 11 {
		t.Errorf("estimate (? ? ?) = %d, want 11", got)
	}
	if got := st.EstimateMatches(rdf.Triple{S: rdf.NewIRI("kb:unknown")}); got != 0 {
		t.Errorf("estimate of unknown subject = %d, want 0", got)
	}
}

// checkEstimatesExact asserts that EstimateMatches and PatternEstimate
// count exactly the facts Match returns, for all eight bound/unbound
// shapes. The patterns are each stored fact (up to 400 of them) projected
// onto every shape, the same shapes over terms drawn from three different
// facts (mostly no match), and shapes naming a term the store has never
// seen.
func checkEstimatesExact(t *testing.T, st *Store) {
	t.Helper()
	facts := st.All()
	if len(facts) == 0 {
		t.Fatal("no facts to estimate")
	}
	rng := rand.New(rand.NewSource(1))
	fact := func() rdf.Triple { return facts[rng.Intn(len(facts))] }
	unknown := rdf.NewIRI("kb:neverSeen")
	seen := map[rdf.Triple]bool{}
	var pats []rdf.Triple
	for mask := 0; mask < 8; mask++ {
		shape := func(s, p, o rdf.Term) {
			ts := [3]rdf.Term{s, p, o}
			for i := range ts {
				if mask&(1<<i) == 0 {
					ts[i] = rdf.Term{}
				}
			}
			if pat := (rdf.Triple{S: ts[0], P: ts[1], O: ts[2]}); !seen[pat] {
				seen[pat] = true
				pats = append(pats, pat)
			}
		}
		for _, f := range facts[:min(len(facts), 400)] {
			shape(f.S, f.P, f.O)
			shape(fact().S, fact().P, fact().O)
		}
		f := fact()
		shape(unknown, f.P, f.O)
		shape(f.S, unknown, f.O)
		shape(f.S, f.P, unknown)
	}
	for _, pat := range pats {
		n := len(st.Match(pat))
		if got := st.EstimateMatches(pat); got != n {
			t.Errorf("EstimateMatches(%v) = %d, Match returned %d", pat, got, n)
		}
		// As constants, and as variables bound by a Binding; an unbound
		// position is a variable the binding leaves out.
		konst, vars, b := Pattern{}, Pattern{S: PVar("s"), P: PVar("p"), O: PVar("o")}, Binding{}
		for _, pos := range []struct {
			t  rdf.Term
			pt *PatternTerm
			v  Var
		}{{pat.S, &konst.S, "s"}, {pat.P, &konst.P, "p"}, {pat.O, &konst.O, "o"}} {
			*pos.pt = PVar(string(pos.v))
			if !pos.t.IsZero() {
				*pos.pt = PTerm(pos.t)
				b[pos.v] = pos.t
			}
		}
		if got := st.PatternEstimate(konst, nil); got != n {
			t.Errorf("PatternEstimate(%v) = %d, Match returned %d", pat, got, n)
		}
		if got := st.PatternEstimate(vars, b); got != n {
			t.Errorf("PatternEstimate(?s ?p ?o, %v) = %d, Match returned %d", b, got, n)
		}
	}
}

// seededTriples draws n triples over small term pools, literals among the
// objects, so that every pattern shape has both matches and misses and
// some triples repeat.
func seededTriples(seed int64, n int) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]rdf.Triple, n)
	for i := range out {
		o := rdf.NewIRI(fmt.Sprintf("kb:o%d", rng.Intn(40)))
		if rng.Intn(4) == 0 {
			o = rdf.NewLiteral(fmt.Sprintf("lit %d", rng.Intn(10)))
		}
		out[i] = rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("kb:s%d", rng.Intn(30))), P: rdf.NewIRI(fmt.Sprintf("kb:p%d", rng.Intn(6))), O: o}
	}
	return out
}

// Estimates are exact counts: over a store filled by Add and AddBatch, and
// over one filled by concurrent AddBatch calls and then left quiet.
func TestEstimatesAreExactCounts(t *testing.T) {
	st := NewStore()
	ts := seededTriples(7, 1500)
	for i, tr := range ts[:500] {
		if i%3 == 0 {
			st.Add(tr)
		}
	}
	for i := 0; i < len(ts); i += 100 {
		st.AddBatch(ts[i : i+100])
	}
	checkEstimatesExact(t, st)

	conc := NewStore()
	var wg sync.WaitGroup
	distinct := map[rdf.Triple]bool{}
	for g := 0; g < 4; g++ {
		batch := seededTriples(int64(g%2), 800) // two goroutines per batch: every fact contended
		for _, tr := range batch {
			distinct[tr] = true
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(batch); i += 50 {
				conc.AddBatch(batch[i : i+50])
			}
		}()
	}
	wg.Wait()
	if conc.Len() != len(distinct) {
		t.Errorf("Len = %d, want %d distinct facts", conc.Len(), len(distinct))
	}
	checkEstimatesExact(t, conc)
}
