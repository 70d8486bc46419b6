package ned

import (
	"sort"

	"kbharvest/internal/synth"
)

// Linker combines the three NED signals. Weights follow the AIDA
// formulation: score(mention m -> entity e) =
//
//	α·prior(m,e) + β·contextSim(m,e) + γ·(coherence of e with the
//	entities chosen for the document's other mentions)
type Linker struct {
	Dict *Dictionary
	Ctx  *ContextModel
	Rel  *Relatedness
	// Alpha, Beta, Gamma weight prior, context, coherence. Defaults
	// 0.3/0.4/0.3.
	Alpha, Beta, Gamma float64
}

// NewLinker wires the models with default weights.
func NewLinker(d *Dictionary, c *ContextModel, r *Relatedness) *Linker {
	return &Linker{Dict: d, Ctx: c, Rel: r, Alpha: 0.3, Beta: 0.4, Gamma: 0.3}
}

// FromCorpus builds a linker from a world and its corpus. The dictionary
// observes each entity's name (weight 4) and aliases (1), then each
// linked mention's anchor text (2); each article gives its subject's
// context profile and its page's outlinks.
func FromCorpus(w *synth.World, c *synth.Corpus) *Linker {
	b := NewBuilder()
	for _, e := range w.Entities {
		b.Observe(e.Name, e.ID, 4)
		for _, a := range e.Aliases {
			b.Observe(a, e.ID, 1)
		}
	}
	for _, a := range c.Articles {
		for _, m := range a.Mentions {
			if m.Linked {
				b.Observe(m.Surface, m.Entity, 2)
			}
		}
	}
	ctx := NewContextModel()
	rel := NewRelatedness()
	for _, a := range c.Articles {
		ctx.AddDocument(a.Subject, a.Text)
		rel.AddLinks(a.ID, a.Links)
	}
	ctx.Finalize()
	return NewLinker(b.Build(), ctx, rel)
}

// Mention is one mention to disambiguate: its surface form and the text
// around it.
type Mention struct {
	Surface string
	Context string
}

// Result is the linker's decision for one mention.
type Result struct {
	Entity string
	Score  float64
	// NoCandidate is true when the dictionary knows no entity for the
	// surface form.
	NoCandidate bool
}

// Mode selects the objective — the E13 ablation axis.
type Mode int

const (
	// PriorOnly picks argmax prior (the popularity baseline).
	PriorOnly Mode = iota
	// PriorContext adds context similarity.
	PriorContext
	// Joint adds pairwise coherence across the document's mentions,
	// optimized greedily (full AIDA-style objective).
	Joint
)

func (m Mode) String() string {
	switch m {
	case PriorOnly:
		return "prior"
	case PriorContext:
		return "prior+context"
	case Joint:
		return "prior+context+coherence"
	}
	return "mode?"
}

// Disambiguate resolves all mentions of one document under the given mode.
func (l *Linker) Disambiguate(mentions []Mention, mode Mode) []Result {
	n := len(mentions)
	results := make([]Result, n)
	cands := make([][]Candidate, n)
	ctxVecs := make([]map[string]float64, n)
	for i, m := range mentions {
		cands[i] = l.Dict.Candidates(m.Surface)
		if len(cands[i]) == 0 {
			results[i] = Result{NoCandidate: true}
			continue
		}
		if mode != PriorOnly {
			ctxVecs[i] = ContextVector(m.Context)
		}
	}
	local := func(i, c int) float64 {
		s := l.Alpha * cands[i][c].Prior
		if mode != PriorOnly && l.Ctx != nil {
			s += l.Beta * l.Ctx.Similarity(cands[i][c].Entity, ctxVecs[i])
		}
		return s
	}
	// Initial assignment: best local score.
	choice := make([]int, n)
	for i := range mentions {
		if results[i].NoCandidate {
			choice[i] = -1
			continue
		}
		best, bestScore := 0, local(i, 0)
		for c := 1; c < len(cands[i]); c++ {
			if s := local(i, c); s > bestScore {
				best, bestScore = c, s
			}
		}
		choice[i] = best
		results[i] = Result{Entity: cands[i][best].Entity, Score: bestScore}
	}
	if mode != Joint || l.Rel == nil || n < 2 {
		return results
	}
	// Greedy coherence sweeps: re-pick each mention's entity to maximize
	// local + average relatedness to the other current choices.
	objective := func(i, c int) float64 {
		s := local(i, c)
		coh, cnt := 0.0, 0
		for j := range mentions {
			if j == i || choice[j] < 0 {
				continue
			}
			coh += l.Rel.Score(cands[i][c].Entity, cands[j][choice[j]].Entity)
			cnt++
		}
		if cnt > 0 {
			s += l.Gamma * coh / float64(cnt)
		}
		return s
	}
	for sweep := 0; sweep < 5; sweep++ {
		changed := false
		for i := range mentions {
			if choice[i] < 0 {
				continue
			}
			best, bestScore := choice[i], objective(i, choice[i])
			for c := range cands[i] {
				if c == choice[i] {
					continue
				}
				if s := objective(i, c); s > bestScore {
					best, bestScore = c, s
				}
			}
			if best != choice[i] {
				choice[i] = best
				changed = true
			}
			results[i] = Result{Entity: cands[i][choice[i]].Entity, Score: objective(i, choice[i])}
		}
		if !changed {
			break
		}
	}
	return results
}

// TopCandidates exposes the ranked candidates with their local scores —
// useful for debugging and the nedtool command.
func (l *Linker) TopCandidates(m Mention, k int) []Candidate {
	cands := l.Dict.Candidates(m.Surface)
	if len(cands) == 0 {
		return nil
	}
	ctx := ContextVector(m.Context)
	scored := make([]Candidate, len(cands))
	for i, c := range cands {
		s := l.Alpha * c.Prior
		if l.Ctx != nil {
			s += l.Beta * l.Ctx.Similarity(c.Entity, ctx)
		}
		scored[i] = Candidate{Entity: c.Entity, Prior: s}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Prior != scored[j].Prior {
			return scored[i].Prior > scored[j].Prior
		}
		return scored[i].Entity < scored[j].Entity
	})
	if k > 0 && k < len(scored) {
		scored = scored[:k]
	}
	return scored
}
