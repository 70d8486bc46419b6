package reason

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/extract"
)

// randomInstance builds a feasible instance over n variables: a planted
// assignment satisfies every hard clause. It mixes hard units, multi-literal
// hard and soft clauses, and negative literals.
func randomInstance(rng *rand.Rand, n int) *Problem {
	p := NewProblem()
	plant := make([]bool, n)
	for i := range plant {
		p.AddVar(fmt.Sprint("v", i))
		plant[i] = rng.Intn(2) == 0
	}
	lits := func(k int) []Lit {
		out := make([]Lit, k)
		for i := range out {
			out[i] = Lit{Var: rng.Intn(n), Neg: rng.Intn(2) == 0}
		}
		return out
	}
	for i := 0; i < n; i++ {
		p.AddSoft(0.1+rng.Float64(), Lit{Var: i, Neg: rng.Intn(4) == 0})
	}
	for i := 0; i < n/2; i++ {
		p.AddSoft(0.1+rng.Float64(), lits(2+rng.Intn(2))...)
	}
	for i := 0; i < n; i++ {
		c := lits(1 + rng.Intn(3))
		if rng.Intn(4) > 0 && len(c) == 1 {
			c = lits(2) // keep hard units the minority
		}
		// Make the planted assignment satisfy the clause.
		c[0].Neg = !plant[c[0].Var]
		p.AddHard(c...)
	}
	return p
}

// checkAgainstExhaustive holds the local-search solvers to the slow
// oracles: the weight they report is Evaluate's, WalkSAT ends feasible and
// no lighter than greedy, and nothing feasible is heavier than the exact
// optimum. It returns whether WalkSAT reached that optimum.
func checkAgainstExhaustive(t *testing.T, name string, p *Problem) bool {
	t.Helper()
	exact, err := p.SolveExhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if exact.HardViolations != 0 {
		t.Fatalf("%s: instance is infeasible", name)
	}
	greedy, walk := p.SolveGreedy(), p.SolveWalkSAT(2000, 0.2, 1)
	for solver, got := range map[string]Solution{"greedy": greedy, "WalkSAT": walk} {
		if oracle := p.Evaluate(got.Values); got.SoftWeight != oracle.SoftWeight || got.HardViolations != oracle.HardViolations {
			t.Errorf("%s: %s reports %v/%d, Evaluate says %v/%d", name, solver,
				got.SoftWeight, got.HardViolations, oracle.SoftWeight, oracle.HardViolations)
		}
		if got.HardViolations == 0 && got.SoftWeight > exact.SoftWeight+1e-9 {
			t.Errorf("%s: %s %.12f above the optimum %.12f", name, solver, got.SoftWeight, exact.SoftWeight)
		}
	}
	if walk.HardViolations != 0 {
		t.Errorf("%s: WalkSAT left %d hard violations", name, walk.HardViolations)
	}
	if greedy.HardViolations == 0 && walk.SoftWeight < greedy.SoftWeight-1e-9 {
		t.Errorf("%s: WalkSAT %.12f below greedy %.12f", name, walk.SoftWeight, greedy.SoftWeight)
	}
	return walk.SoftWeight >= exact.SoftWeight-1e-9
}

func TestSolversAgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	optimal := 0
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, 4+rng.Intn(11))
		if checkAgainstExhaustive(t, fmt.Sprint("random ", trial), p) {
			optimal++
		}
	}
	t.Logf("WalkSAT optimal on %d of 60 instances", optimal)
}

// The rule kinds the pipeline does not use — inverse-functional and
// temporally exclusive relations — produce components that are not
// cliques; 2000 flips still reach the optimum on 14 candidates.
func TestSolversAgainstExhaustiveOnConsistencyRules(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	optimal := 0
	for trial := 0; trial < 30; trial++ {
		begin := map[string]int{}
		var cands []extract.Candidate
		for len(cands) < 14 {
			c := cand(entity("s", rng.Intn(4)), []string{"born", "heads", "ceo"}[rng.Intn(3)],
				entity("o", rng.Intn(4)), 0.1+rng.Float64())
			if _, dup := begin[c.Key()]; dup {
				continue
			}
			begin[c.Key()] = rng.Intn(100)
			cands = append(cands, c)
		}
		cp := BuildConsistency(cands, ConsistencyRules{
			Functional:          map[string]bool{"born": true},
			InverseFunctional:   map[string]bool{"heads": true},
			TemporallyExclusive: map[string]bool{"ceo": true},
			Times: func(c extract.Candidate) core.Interval {
				b := begin[c.Key()]
				return core.Interval{Begin: b, End: b + 40}
			},
			TypeCheck: func(c extract.Candidate) bool { return c.O != entity("o", 3) || c.P != "born" },
		})
		if checkAgainstExhaustive(t, fmt.Sprint("rules ", trial), cp.Problem) {
			optimal++
		}
	}
	if optimal != 30 {
		t.Errorf("WalkSAT optimal on %d of 30 instances", optimal)
	}
}

// On one large connected component WalkSAT must end feasible, no lighter
// than the greedy start, and the same for the same seed.
func TestWalkSATLargeComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := NewProblem()
	n := 120
	for i := 0; i < n; i++ {
		p.AddVar("v")
		p.AddSoft(0.1+rng.Float64(), Lit{Var: i})
	}
	for i := 0; i+1 < n; i++ { // a chain joins everything, plus chords
		p.AddHard(Lit{Var: i, Neg: true}, Lit{Var: i + 1, Neg: true})
		if j := rng.Intn(n); j != i {
			p.AddHard(Lit{Var: i, Neg: true}, Lit{Var: j, Neg: true})
		}
	}
	greedy, got := p.SolveGreedy(), p.SolveWalkSAT(8000, 0.2, 3)
	if got.HardViolations != 0 {
		t.Fatalf("WalkSAT left %d hard violations", got.HardViolations)
	}
	if got.SoftWeight < greedy.SoftWeight {
		t.Errorf("WalkSAT %.6f below greedy %.6f", got.SoftWeight, greedy.SoftWeight)
	}
	if !reflect.DeepEqual(got, p.SolveWalkSAT(8000, 0.2, 3)) {
		t.Error("WalkSAT is not deterministic for a fixed seed")
	}
}

// Greedy repair is already optimal on a mutex clique — it never flips the
// heaviest member — so the solvers need no clique special case.
func TestMutexCliqueKeepsHeaviest(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := NewProblem()
	n, heaviest := 200, 0
	weights := make([]float64, n)
	for i := range weights {
		p.AddVar("v")
		weights[i] = 0.1 + rng.Float64()
		p.AddSoft(weights[i], Lit{Var: i})
		if weights[i] > weights[heaviest] {
			heaviest = i
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.AddHard(Lit{Var: i, Neg: true}, Lit{Var: j, Neg: true})
		}
	}
	for name, sol := range map[string]Solution{"greedy": p.SolveGreedy(), "WalkSAT": p.SolveWalkSAT(1000, 0.2, 1)} {
		if sol.HardViolations != 0 {
			t.Errorf("%s: %d hard violations", name, sol.HardViolations)
		}
		for v, val := range sol.Values {
			if val != (v == heaviest) {
				t.Fatalf("%s: variable %d = %v, heaviest is %d", name, v, val, heaviest)
			}
		}
	}
}

// The search state after any sequence of flips must be what a scan of all
// clauses computes.
func TestSearchStateMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	p := randomInstance(rng, 40)
	p.AddHard(Lit{Var: 3}, Lit{Var: 3, Neg: true}, Lit{Var: 5}) // a variable twice in one clause
	p.AddSoft(0.5, Lit{Var: 7}, Lit{Var: 7})
	s := newSearch(p, allTrue(40))
	for step := 0; step <= 1000; step++ {
		want := p.Evaluate(s.vals)
		firstHard := -1
		var soft []int
		for ci, c := range p.clauses {
			if satisfied(c, s.vals) {
				continue
			}
			if !c.Hard {
				soft = append(soft, ci)
			} else if firstHard < 0 {
				firstHard = ci
			}
		}
		if s.unsatHard != want.HardViolations || s.firstViolatedHard() != firstHard {
			t.Fatalf("step %d: hard count %d first %d, want %d and %d",
				step, s.unsatHard, s.firstViolatedHard(), want.HardViolations, firstHard)
		}
		got := append([]int(nil), s.unsatSoft...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, soft) {
			t.Fatalf("step %d: unsatisfied soft clauses %v, want %v", step, got, soft)
		}
		if math.Abs(s.weight-want.SoftWeight) > 1e-9 {
			t.Fatalf("step %d: running weight %.12f, Evaluate %.12f", step, s.weight, want.SoftWeight)
		}
		v := rng.Intn(40)
		loss, feasible := s.flipLoss(v), s.flipKeepsFeasible(v)
		s.flip(v)
		after := p.Evaluate(s.vals)
		if math.Abs(loss-(want.SoftWeight-after.SoftWeight)) > 1e-9 {
			t.Fatalf("step %d: flipLoss(%d) = %v, weight went %v -> %v", step, v, loss, want.SoftWeight, after.SoftWeight)
		}
		if want.HardViolations == 0 && feasible != (after.HardViolations == 0) {
			t.Fatalf("step %d: flipKeepsFeasible(%d) = %v, violations after = %d", step, v, feasible, after.HardViolations)
		}
	}
}

// No assignment of this instance beats greedy's, but many tie with it:
// each pair is a mutex of two equally heavy facts whose soft clauses sit
// far apart, so a tie sums the same weights in another order. WalkSAT must
// return the incumbent, not a tie that rounding made look heavier (it did,
// before weightTol), and must report the weight Evaluate computes.
func TestWalkSATKeepsIncumbentOnTies(t *testing.T) {
	p := NewProblem()
	const pairs = 40
	weight := func(i int) float64 { return 0.1 * float64(1+i%7) }
	for i := 0; i < 2*pairs; i++ {
		p.AddVar("v")
	}
	for i := 0; i < pairs; i++ {
		p.AddSoft(weight(i), Lit{Var: i})
	}
	for i := pairs - 1; i >= 0; i-- {
		p.AddSoft(weight(i), Lit{Var: pairs + i})
	}
	for i := 0; i < pairs; i++ {
		p.AddHard(Lit{Var: i, Neg: true}, Lit{Var: pairs + i, Neg: true})
	}
	greedy := p.SolveGreedy()
	for seed := int64(0); seed < 20; seed++ {
		walk := p.SolveWalkSAT(2000, 0.2, seed)
		if !reflect.DeepEqual(walk.Values, greedy.Values) {
			t.Fatalf("seed %d: WalkSAT replaced the incumbent with an equal-weight assignment", seed)
		}
		if walk.SoftWeight != greedy.SoftWeight || walk.HardViolations != 0 {
			t.Fatalf("seed %d: WalkSAT reports %+v, greedy %v", seed, walk.SoftWeight, greedy.SoftWeight)
		}
	}
}

// The search's work is linear in the instance: clause visits are bounded
// by the literal occurrences plus what the flips made touch, on 20 000
// small components with the budget the pipeline gives WalkSAT.
func TestSearchWorkIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := NewProblem()
	const comps = 20000
	for k := 0; k < comps; k++ {
		size := 1 + rng.Intn(3)
		first := len(p.names)
		for i := 0; i < size; i++ {
			v := p.AddVar("v")
			p.AddSoft(0.1+rng.Float64(), Lit{Var: v})
			if rng.Intn(8) == 0 {
				p.AddHard(Lit{Var: v, Neg: true})
			}
			for u := first; u < v; u++ {
				p.AddHard(Lit{Var: u, Neg: true}, Lit{Var: v, Neg: true})
			}
		}
	}
	occurrences, maxDegree := 0, 0
	for _, c := range p.clauses {
		occurrences += len(c.Lits)
	}
	for _, w := range p.watch {
		if len(w) > maxDegree {
			maxDegree = len(w)
		}
	}
	budget := 4*len(p.names) + 1000
	s := newSearch(p, allTrue(len(p.names)))
	s.greedy()
	s.mark()
	s.walk(budget, 0.2, rand.New(rand.NewSource(1)))
	if sol := p.Evaluate(s.best); sol.HardViolations != 0 {
		t.Fatalf("%d hard violations", sol.HardViolations)
	}
	w := s.work
	if limit := 4 * (occurrences + w.flips*maxDegree); w.visits > limit {
		t.Errorf("%d clause visits for %d occurrences, %d flips, degree %d (limit %d)",
			w.visits, occurrences, w.flips, maxDegree, limit)
	}
	if limit := len(p.names) + budget; w.flips > limit {
		t.Errorf("%d flips for %d variables and a budget of %d", w.flips, len(p.names), budget)
	}
	t.Logf("%d vars, %d occurrences: %d visits, %d flips", len(p.names), occurrences, w.visits, w.flips)
}
