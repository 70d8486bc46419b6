package reason

import (
	"sort"

	"kbharvest/internal/core"
	"kbharvest/internal/extract"
)

// ConsistencyRules describe the schema knowledge the reasoner enforces —
// the rule kinds the tutorial names for "logical consistency reasoning":
// functional relations, type signatures, and temporal exclusivity.
type ConsistencyRules struct {
	// Functional relations allow at most one object per subject.
	Functional map[string]bool
	// InverseFunctional relations allow at most one subject per object.
	InverseFunctional map[string]bool
	// TypeCheck, if set, vets a candidate's type signature; failing
	// candidates get a hard ¬fact clause.
	TypeCheck func(c extract.Candidate) bool
	// TemporallyExclusive relations allow no two facts with the same
	// subject whose validity intervals overlap (e.g. a company's CEO);
	// intervals are supplied by Times.
	TemporallyExclusive map[string]bool
	Times               func(c extract.Candidate) core.Interval
}

// ConsistencyProblem couples a MaxSat instance with the candidate facts
// its variables stand for.
type ConsistencyProblem struct {
	*Problem
	Candidates []extract.Candidate
}

// BuildConsistency compiles candidates + rules into weighted MaxSat:
// soft unit clause (fact) with the extraction confidence as weight, and
// hard pairwise exclusion clauses (¬a ∨ ¬b) for rule conflicts.
func BuildConsistency(cands []extract.Candidate, rules ConsistencyRules) *ConsistencyProblem {
	cp := &ConsistencyProblem{Problem: NewProblem()}
	// Dedupe candidates by (s,p,o), keeping max confidence.
	byKey := map[string]int{}
	for _, c := range cands {
		if i, ok := byKey[c.Key()]; ok {
			if c.Confidence > cp.Candidates[i].Confidence {
				cp.Candidates[i].Confidence = c.Confidence
			}
			continue
		}
		byKey[c.Key()] = len(cp.Candidates)
		cp.Candidates = append(cp.Candidates, c)
	}
	for _, c := range cp.Candidates {
		v := cp.AddVar(c.S + "|" + c.P + "|" + c.O)
		w := c.Confidence
		if w <= 0 {
			w = 0.01
		}
		mustNoErr(cp.AddSoft(w, Lit{Var: v}))
		if rules.TypeCheck != nil && !rules.TypeCheck(c) {
			mustNoErr(cp.AddHard(Lit{Var: v, Neg: true}))
		}
	}
	// Pairwise exclusions.
	group := func(key func(c extract.Candidate) (string, bool)) map[string][]int {
		m := map[string][]int{}
		for i, c := range cp.Candidates {
			if k, ok := key(c); ok {
				m[k] = append(m[k], i)
			}
		}
		return m
	}
	addMutexes := func(groups map[string][]int, conflict func(a, b extract.Candidate) bool) {
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			idxs := groups[k]
			for i := 0; i < len(idxs); i++ {
				for j := i + 1; j < len(idxs); j++ {
					a, b := cp.Candidates[idxs[i]], cp.Candidates[idxs[j]]
					if conflict(a, b) {
						mustNoErr(cp.AddHard(
							Lit{Var: idxs[i], Neg: true},
							Lit{Var: idxs[j], Neg: true},
						))
					}
				}
			}
		}
	}
	if len(rules.Functional) > 0 {
		addMutexes(group(func(c extract.Candidate) (string, bool) {
			if rules.Functional[c.P] {
				return c.P + "|" + c.S, true
			}
			return "", false
		}), func(a, b extract.Candidate) bool { return a.O != b.O })
	}
	if len(rules.InverseFunctional) > 0 {
		addMutexes(group(func(c extract.Candidate) (string, bool) {
			if rules.InverseFunctional[c.P] {
				return c.P + "|" + c.O, true
			}
			return "", false
		}), func(a, b extract.Candidate) bool { return a.S != b.S })
	}
	if len(rules.TemporallyExclusive) > 0 && rules.Times != nil {
		addMutexes(group(func(c extract.Candidate) (string, bool) {
			if rules.TemporallyExclusive[c.P] {
				return c.P + "|" + c.S, true
			}
			return "", false
		}), func(a, b extract.Candidate) bool {
			return a.O != b.O && rules.Times(a).Overlaps(rules.Times(b))
		})
	}
	return cp
}

// Accepted returns the candidates assigned true by a solution.
func (cp *ConsistencyProblem) Accepted(s Solution) []extract.Candidate {
	var out []extract.Candidate
	for i, c := range cp.Candidates {
		if i < len(s.Values) && s.Values[i] {
			out = append(out, c)
		}
	}
	return out
}

func mustNoErr(err error) {
	if err != nil {
		// Clauses built here reference variables we just created; an
		// error means a bug in this package, not bad input.
		panic(err)
	}
}
