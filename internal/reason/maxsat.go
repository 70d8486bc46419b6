// Package reason implements logical consistency reasoning over candidate
// facts (§3): the SOFIE/YAGO approach of casting fact acceptance as
// weighted MaxSat. Extracted candidates become weighted unit clauses
// (weight = extraction confidence); consistency rules — functionality,
// type signatures, relation disjointness, temporal exclusion — become hard
// clauses. A solver then picks the consistent subset of maximum weight,
// which lifts precision over accepting raw extractions (experiment E6).
package reason

import (
	"fmt"
	"math/rand"
	"sort"
)

// Lit is one literal: variable index, possibly negated.
type Lit struct {
	Var int
	Neg bool
}

// Clause is a disjunction of literals. Hard clauses must be satisfied;
// soft clauses contribute Weight when satisfied.
type Clause struct {
	Lits   []Lit
	Weight float64
	Hard   bool
}

// Problem is a weighted partial MaxSat instance.
type Problem struct {
	names   []string
	clauses []Clause
	// watch[v] lists clause indexes containing variable v.
	watch [][]int
}

// NewProblem returns an empty instance.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a boolean variable and returns its index.
func (p *Problem) AddVar(name string) int {
	p.names = append(p.names, name)
	p.watch = append(p.watch, nil)
	return len(p.names) - 1
}

// Name returns a variable's name.
func (p *Problem) Name(v int) string { return p.names[v] }

// AddSoft adds a soft clause with the given weight.
func (p *Problem) AddSoft(weight float64, lits ...Lit) error {
	return p.addClause(Clause{Lits: lits, Weight: weight})
}

// AddHard adds a hard clause.
func (p *Problem) AddHard(lits ...Lit) error {
	return p.addClause(Clause{Lits: lits, Hard: true})
}

func (p *Problem) addClause(c Clause) error {
	if len(c.Lits) == 0 {
		return fmt.Errorf("reason: empty clause")
	}
	for _, l := range c.Lits {
		if l.Var < 0 || l.Var >= len(p.names) {
			return fmt.Errorf("reason: variable %d out of range", l.Var)
		}
	}
	idx := len(p.clauses)
	p.clauses = append(p.clauses, c)
	for i, l := range c.Lits {
		if !hasVar(c.Lits[:i], l.Var) {
			p.watch[l.Var] = append(p.watch[l.Var], idx)
		}
	}
	return nil
}

func hasVar(lits []Lit, v int) bool {
	for _, l := range lits {
		if l.Var == v {
			return true
		}
	}
	return false
}

// Solution is one assignment with its quality.
type Solution struct {
	Values []bool
	// SoftWeight is the total weight of satisfied soft clauses.
	SoftWeight float64
	// HardViolations counts unsatisfied hard clauses (0 for feasible
	// solutions).
	HardViolations int
}

func satisfied(c Clause, vals []bool) bool {
	for _, l := range c.Lits {
		if vals[l.Var] != l.Neg {
			return true
		}
	}
	return false
}

// Evaluate scores an assignment.
func (p *Problem) Evaluate(vals []bool) Solution {
	s := Solution{Values: vals}
	for _, c := range p.clauses {
		if satisfied(c, vals) {
			if !c.Hard {
				s.SoftWeight += c.Weight
			}
		} else if c.Hard {
			s.HardViolations++
		}
	}
	return s
}

// SolveGreedy starts from all-true (accept every fact) and repairs hard
// violations by flipping, within the lowest-numbered violated clause, the
// variable whose flip loses the least soft weight; then does one
// local-improvement pass over soft clauses. Deterministic.
func (p *Problem) SolveGreedy() Solution {
	s := newSearch(p, allTrue(len(p.names)))
	s.greedy()
	return p.Evaluate(s.vals)
}

// SolveWalkSAT runs weighted WalkSAT: starting from the greedy solution,
// it repeatedly picks an unsatisfied clause (hard ones first) and flips
// either a random variable in it (with probability noise) or the variable
// whose flip minimizes the damage. The best feasible solution seen wins.
func (p *Problem) SolveWalkSAT(maxFlips int, noise float64, seed int64) Solution {
	s := newSearch(p, allTrue(len(p.names)))
	s.greedy()
	s.mark()
	s.walk(maxFlips, noise, rand.New(rand.NewSource(seed)))
	return p.Evaluate(s.best)
}

func allTrue(n int) []bool {
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = true
	}
	return vals
}

// SolveExhaustive enumerates all assignments — exact, for problems with at
// most ~22 variables (used to validate the heuristics on small cores).
func (p *Problem) SolveExhaustive() (Solution, error) {
	n := len(p.names)
	if n > 22 {
		return Solution{}, fmt.Errorf("reason: %d variables too many for exhaustive search", n)
	}
	best := Solution{HardViolations: 1 << 30}
	vals := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 0; v < n; v++ {
			vals[v] = mask&(1<<uint(v)) != 0
		}
		sol := p.Evaluate(vals)
		if sol.HardViolations < best.HardViolations ||
			(sol.HardViolations == best.HardViolations && sol.SoftWeight > best.SoftWeight) {
			best = Solution{
				Values:         append([]bool(nil), vals...),
				SoftWeight:     sol.SoftWeight,
				HardViolations: sol.HardViolations,
			}
		}
	}
	return best, nil
}

// TrueVars lists the names of variables assigned true, sorted.
func (p *Problem) TrueVars(s Solution) []string {
	var out []string
	for v, val := range s.Values {
		if val {
			out = append(out, p.names[v])
		}
	}
	sort.Strings(out)
	return out
}
