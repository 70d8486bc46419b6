package commonsense

import (
	"fmt"
	"sort"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// AMIE-style horn-rule mining over the KB: rules of the shapes
//
//	r1(x,y)            => r2(x,y)   (implication)
//	r1(y,x)            => r2(x,y)   (inverse / symmetry)
//	r1(x,z) ∧ r2(z,y)  => r3(x,y)   (chain)
//
// scored with support, head coverage, and PCA confidence — the
// commonsense-rule acquisition the tutorial sketches with the
// "father of a mother's child" example.

// Rule is one mined horn rule.
type Rule struct {
	// Kind is "impl", "inv", or "chain".
	Kind string
	// Body relations (one for impl/inv, two for chain) and the head.
	Body []string
	Head string
	// Support is the number of (x,y) pairs satisfying body and head.
	Support int
	// BodySize is the number of (x,y) pairs satisfying the body.
	BodySize int
	// HeadCoverage = Support / #head facts.
	HeadCoverage float64
	// PCAConfidence = Support / #body pairs whose x has any head fact —
	// the partial-completeness-assumption denominator AMIE introduced.
	PCAConfidence float64
}

// String renders the rule in AMIE notation.
func (r Rule) String() string {
	switch r.Kind {
	case "inv":
		return fmt.Sprintf("%s(y,x) => %s(x,y)  [supp=%d hc=%.2f pca=%.2f]",
			r.Body[0], r.Head, r.Support, r.HeadCoverage, r.PCAConfidence)
	case "chain":
		return fmt.Sprintf("%s(x,z) & %s(z,y) => %s(x,y)  [supp=%d hc=%.2f pca=%.2f]",
			r.Body[0], r.Body[1], r.Head, r.Support, r.HeadCoverage, r.PCAConfidence)
	default:
		return fmt.Sprintf("%s(x,y) => %s(x,y)  [supp=%d hc=%.2f pca=%.2f]",
			r.Body[0], r.Head, r.Support, r.HeadCoverage, r.PCAConfidence)
	}
}

// MineConfig bounds the search.
type MineConfig struct {
	// MinSupport is the minimum rule support. Default 5.
	MinSupport int
	// MinHeadCoverage prunes rules explaining too little of the head.
	// Default 0.05.
	MinHeadCoverage float64
	// MinPCAConfidence gates output quality. Default 0.3.
	MinPCAConfidence float64
	// Relations restricts mining to these relation IRIs (default: all
	// object-property relations in the store except rdf/rdfs builtins).
	Relations []string
}

// DefaultMineConfig returns the standard settings.
func DefaultMineConfig() MineConfig {
	return MineConfig{MinSupport: 5, MinHeadCoverage: 0.05, MinPCAConfidence: 0.3}
}

type pair struct{ x, y string }

// relIndex holds one relation's facts in both directions.
type relIndex struct {
	pairs   map[pair]bool
	bySubj  map[string][]string
	hasSubj map[string]bool
	n       int
}

// MineRules mines rules from the store.
func MineRules(st *core.Store, cfg MineConfig) []Rule {
	if cfg.MinSupport == 0 {
		cfg = MineConfig{
			MinSupport:       DefaultMineConfig().MinSupport,
			MinHeadCoverage:  DefaultMineConfig().MinHeadCoverage,
			MinPCAConfidence: DefaultMineConfig().MinPCAConfidence,
			Relations:        cfg.Relations,
		}
	}
	rels := cfg.Relations
	if len(rels) == 0 {
		for _, p := range st.Predicates() {
			if p.IsIRI() && !isBuiltin(p.Value) {
				rels = append(rels, p.Value)
			}
		}
	}
	sort.Strings(rels)
	idx := map[string]*relIndex{}
	for _, r := range rels {
		ri := &relIndex{
			pairs:   map[pair]bool{},
			bySubj:  map[string][]string{},
			hasSubj: map[string]bool{},
		}
		st.MatchFunc(rdf.Triple{P: rdf.NewIRI(r)}, func(_ core.FactID, t rdf.Triple) bool {
			if !t.S.IsIRI() || !t.O.IsIRI() {
				return true
			}
			p := pair{t.S.Value, t.O.Value}
			if !ri.pairs[p] {
				ri.pairs[p] = true
				ri.bySubj[p.x] = append(ri.bySubj[p.x], p.y)
				ri.hasSubj[p.x] = true
				ri.n++
			}
			return true
		})
		idx[r] = ri
	}

	var out []Rule
	keep := func(r Rule) {
		if r.Support >= cfg.MinSupport &&
			r.HeadCoverage >= cfg.MinHeadCoverage &&
			r.PCAConfidence >= cfg.MinPCAConfidence {
			out = append(out, r)
		}
	}

	// impl and inv rules.
	for _, body := range rels {
		for _, head := range rels {
			if body == head {
				// impl would be trivial; inv(r,r) captures symmetry.
				keep(scoreRule("inv", []string{body}, head, invPairs(idx[body]), idx[head]))
				continue
			}
			keep(scoreRule("impl", []string{body}, head, idx[body].pairs, idx[head]))
			keep(scoreRule("inv", []string{body}, head, invPairs(idx[body]), idx[head]))
		}
	}
	// chain rules r1(x,z) & r2(z,y) => r3(x,y).
	for _, r1 := range rels {
		for _, r2 := range rels {
			joined := joinPairs(idx[r1], idx[r2])
			if len(joined) == 0 {
				continue
			}
			for _, head := range rels {
				keep(scoreRule("chain", []string{r1, r2}, head, joined, idx[head]))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PCAConfidence != out[j].PCAConfidence {
			return out[i].PCAConfidence > out[j].PCAConfidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].String() < out[j].String()
	})
	return out
}

func invPairs(ri *relIndex) map[pair]bool {
	out := make(map[pair]bool, len(ri.pairs))
	for p := range ri.pairs {
		out[pair{p.y, p.x}] = true
	}
	return out
}

// joinPairs computes {(x,y) : r1(x,z), r2(z,y)}, skipping x==y loops.
func joinPairs(r1, r2 *relIndex) map[pair]bool {
	out := map[pair]bool{}
	for p := range r1.pairs {
		for _, y := range r2.bySubj[p.y] {
			if y != p.x {
				out[pair{p.x, y}] = true
			}
		}
	}
	return out
}

func scoreRule(kind string, body []string, head string, bodyPairs map[pair]bool, headIdx *relIndex) Rule {
	support := 0
	pcaDenom := 0
	for p := range bodyPairs {
		if headIdx.pairs[p] {
			support++
		}
		if headIdx.hasSubj[p.x] {
			pcaDenom++
		}
	}
	r := Rule{Kind: kind, Body: body, Head: head, Support: support, BodySize: len(bodyPairs)}
	if headIdx.n > 0 {
		r.HeadCoverage = float64(support) / float64(headIdx.n)
	}
	if pcaDenom > 0 {
		r.PCAConfidence = float64(support) / float64(pcaDenom)
	}
	return r
}

func isBuiltin(iri string) bool {
	switch iri {
	case rdf.RDFType, rdf.RDFSSubClassOf, rdf.RDFSLabel, rdf.SKOSAltLabel, rdf.OWLSameAs:
		return true
	}
	return false
}
