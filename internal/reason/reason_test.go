package reason

import (
	"math/rand"
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/eval"
	"kbharvest/internal/extract"
)

func TestGreedySimple(t *testing.T) {
	p := NewProblem()
	a := p.AddVar("a")
	b := p.AddVar("b")
	p.AddSoft(0.9, Lit{Var: a})
	p.AddSoft(0.4, Lit{Var: b})
	p.AddHard(Lit{Var: a, Neg: true}, Lit{Var: b, Neg: true}) // ¬a ∨ ¬b
	sol := p.SolveGreedy()
	if sol.HardViolations != 0 {
		t.Fatalf("greedy left hard violations: %+v", sol)
	}
	if !sol.Values[a] || sol.Values[b] {
		t.Errorf("greedy should keep the heavier fact: %v", sol.Values)
	}
}

func TestEvaluate(t *testing.T) {
	p := NewProblem()
	a := p.AddVar("a")
	p.AddSoft(0.5, Lit{Var: a})
	p.AddHard(Lit{Var: a, Neg: true})
	s := p.Evaluate([]bool{true})
	if s.SoftWeight != 0.5 || s.HardViolations != 1 {
		t.Errorf("Evaluate = %+v", s)
	}
	s = p.Evaluate([]bool{false})
	if s.SoftWeight != 0 || s.HardViolations != 0 {
		t.Errorf("Evaluate = %+v", s)
	}
}

func TestClauseValidation(t *testing.T) {
	p := NewProblem()
	if err := p.AddSoft(1); err == nil {
		t.Error("empty clause should fail")
	}
	if err := p.AddHard(Lit{Var: 5}); err == nil {
		t.Error("out-of-range variable should fail")
	}
}

func TestWalkSATMatchesExhaustiveOnSmallRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		p := NewProblem()
		n := 6 + rng.Intn(4)
		for i := 0; i < n; i++ {
			p.AddVar("v")
		}
		// Random soft unit clauses.
		for i := 0; i < n; i++ {
			p.AddSoft(0.1+rng.Float64(), Lit{Var: i})
		}
		// Random hard binary exclusions.
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.AddHard(Lit{Var: a, Neg: true}, Lit{Var: b, Neg: true})
			}
		}
		exact, err := p.SolveExhaustive()
		if err != nil {
			t.Fatal(err)
		}
		walk := p.SolveWalkSAT(2000, 0.2, int64(trial))
		if walk.HardViolations != 0 {
			t.Fatalf("trial %d: WalkSAT infeasible", trial)
		}
		if walk.SoftWeight < exact.SoftWeight-1e-9 {
			// WalkSAT is a heuristic, but on these tiny instances it
			// should reach the optimum.
			t.Errorf("trial %d: WalkSAT %.4f < exact %.4f", trial, walk.SoftWeight, exact.SoftWeight)
		}
	}
}

func TestExhaustiveTooLarge(t *testing.T) {
	p := NewProblem()
	for i := 0; i < 30; i++ {
		p.AddVar("v")
	}
	if _, err := p.SolveExhaustive(); err == nil {
		t.Error("expected size error")
	}
}

func cand(s, p, o string, conf float64) extract.Candidate {
	return extract.Candidate{S: s, P: p, O: o, Confidence: conf}
}

func TestBuildConsistencyFunctional(t *testing.T) {
	cands := []extract.Candidate{
		cand("kb:alice", "kb:bornIn", "kb:springfield", 0.9),
		cand("kb:alice", "kb:bornIn", "kb:shelbyville", 0.4), // conflicting birthplace
		cand("kb:bob", "kb:bornIn", "kb:springfield", 0.8),
	}
	cp := BuildConsistency(cands, ConsistencyRules{
		Functional: map[string]bool{"kb:bornIn": true},
	})
	sol := cp.SolveWalkSAT(500, 0.2, 1)
	if sol.HardViolations != 0 {
		t.Fatal("infeasible")
	}
	accepted := cp.Accepted(sol)
	keys := map[string]bool{}
	for _, c := range accepted {
		keys[c.O+"|"+c.S] = true
	}
	if !keys["kb:springfield|kb:alice"] {
		t.Errorf("high-confidence fact rejected: %+v", accepted)
	}
	if keys["kb:shelbyville|kb:alice"] {
		t.Errorf("conflicting low-confidence fact accepted: %+v", accepted)
	}
	if !keys["kb:springfield|kb:bob"] {
		t.Errorf("unrelated fact rejected: %+v", accepted)
	}
}

func TestBuildConsistencyTypeCheck(t *testing.T) {
	cands := []extract.Candidate{
		cand("kb:alice", "kb:bornIn", "kb:acme", 0.95), // born in a company: ill-typed
		cand("kb:alice", "kb:bornIn", "kb:springfield", 0.5),
	}
	cp := BuildConsistency(cands, ConsistencyRules{
		Functional: map[string]bool{"kb:bornIn": true},
		TypeCheck: func(c extract.Candidate) bool {
			return c.O != "kb:acme"
		},
	})
	sol := cp.SolveWalkSAT(500, 0.2, 2)
	accepted := cp.Accepted(sol)
	for _, c := range accepted {
		if c.O == "kb:acme" {
			t.Error("ill-typed fact accepted despite hard clause")
		}
	}
	if len(accepted) != 1 {
		t.Errorf("accepted = %+v", accepted)
	}
}

func TestBuildConsistencyTemporal(t *testing.T) {
	times := map[string]core.Interval{
		"kb:a|kb:ceoOf|kb:acme": {Begin: 0, End: 100},
		"kb:b|kb:ceoOf|kb:acme": {Begin: 50, End: 150},  // overlaps a
		"kb:c|kb:ceoOf|kb:acme": {Begin: 200, End: 300}, // disjoint
	}
	// Note: temporal exclusivity groups by subject; here the "subject" of
	// exclusivity is the company, so model facts as (company, rel, person).
	cands := []extract.Candidate{
		cand("kb:acme", "ceoIs", "kb:a", 0.9),
		cand("kb:acme", "ceoIs", "kb:b", 0.5),
		cand("kb:acme", "ceoIs", "kb:c", 0.7),
	}
	keyOf := func(c extract.Candidate) string { return c.O + "|kb:ceoOf|" + c.S }
	cp := BuildConsistency(cands, ConsistencyRules{
		TemporallyExclusive: map[string]bool{"ceoIs": true},
		Times: func(c extract.Candidate) core.Interval {
			return times[keyOf(c)]
		},
	})
	sol := cp.SolveWalkSAT(500, 0.2, 3)
	accepted := cp.Accepted(sol)
	people := map[string]bool{}
	for _, c := range accepted {
		people[c.O] = true
	}
	if !people["kb:a"] || people["kb:b"] || !people["kb:c"] {
		t.Errorf("temporal reasoning wrong: %+v", accepted)
	}
}

func TestBuildConsistencyDedupes(t *testing.T) {
	cands := []extract.Candidate{
		cand("a", "p", "b", 0.3),
		cand("a", "p", "b", 0.8), // duplicate, higher confidence
	}
	cp := BuildConsistency(cands, ConsistencyRules{})
	if len(cp.Candidates) != 1 {
		t.Fatalf("candidates = %+v", cp.Candidates)
	}
	if cp.Candidates[0].Confidence != 0.8 {
		t.Errorf("dedupe should keep max confidence: %+v", cp.Candidates[0])
	}
}

// The E6 invariant in miniature: reasoning lifts precision on a noisy
// candidate set without destroying recall.
func TestReasoningLiftsPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var cands []extract.Candidate
	gold := map[string]bool{}
	// 40 true facts, high confidence.
	for i := 0; i < 40; i++ {
		s := entity("s", i)
		o := entity("o", i)
		c := cand(s, "kb:bornIn", o, 0.7+0.3*rng.Float64())
		cands = append(cands, c)
		gold[c.Key()] = true
	}
	// 20 noise facts contradicting the functional constraint, lower
	// confidence.
	for i := 0; i < 20; i++ {
		s := entity("s", i)
		o := entity("noise", i)
		cands = append(cands, cand(s, "kb:bornIn", o, 0.2+0.4*rng.Float64()))
	}
	pre := precisionOf(cands, gold)

	cp := BuildConsistency(cands, ConsistencyRules{
		Functional: map[string]bool{"kb:bornIn": true},
	})
	sol := cp.SolveWalkSAT(3000, 0.2, 5)
	if sol.HardViolations != 0 {
		t.Fatal("infeasible solution")
	}
	accepted := cp.Accepted(sol)
	post := precisionOf(accepted, gold)
	if post <= pre {
		t.Errorf("reasoning did not lift precision: %.3f -> %.3f", pre, post)
	}
	if post < 0.95 {
		t.Errorf("post-reasoning precision = %.3f", post)
	}
	// Recall: all 40 gold facts should survive (their confidences beat
	// the noise).
	kept := 0
	for _, c := range accepted {
		if gold[c.Key()] {
			kept++
		}
	}
	if kept < 38 {
		t.Errorf("reasoning destroyed recall: %d/40 kept", kept)
	}
}

func precisionOf(cands []extract.Candidate, gold map[string]bool) float64 {
	if len(cands) == 0 {
		return 0
	}
	tp := 0
	for _, c := range cands {
		if gold[c.Key()] {
			tp++
		}
	}
	return eval.Accuracy(tp, len(cands))
}

func entity(prefix string, i int) string {
	return "kb:" + prefix + string(rune('A'+i%26)) + string(rune('0'+i/26))
}
