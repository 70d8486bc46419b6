package ned

import (
	"math"

	"kbharvest/internal/text"
)

// ContextModel holds per-entity keyphrase profiles as tf-idf stem vectors
// built from the entity's article text — the "salient phrases associated
// with an entity" side of the tutorial's NED equation.
type ContextModel struct {
	vecs map[string]map[string]float64 // entity -> stem -> tf-idf weight
	df   map[string]int
	n    int
}

// NewContextModel returns an empty model.
func NewContextModel() *ContextModel {
	return &ContextModel{
		vecs: make(map[string]map[string]float64),
		df:   make(map[string]int),
	}
}

// AddDocument registers an entity's profile text (typically its article).
func (m *ContextModel) AddDocument(entity, body string) {
	tf := make(map[string]float64)
	for _, stem := range text.ContentStems(body) {
		tf[stem]++
	}
	m.vecs[entity] = tf
	for stem := range tf {
		m.df[stem]++
	}
	m.n++
}

// Finalize converts raw term frequencies to normalized tf-idf vectors.
// Call once after all AddDocument calls.
func (m *ContextModel) Finalize() {
	for entity, tf := range m.vecs {
		var norm float64
		for stem, f := range tf {
			idf := math.Log(float64(m.n+1) / float64(m.df[stem]+1))
			w := f * idf
			tf[stem] = w
			norm += w * w
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for stem := range tf {
				tf[stem] /= norm
			}
		}
		m.vecs[entity] = tf
	}
}

// Similarity scores an entity's profile against a context word bag
// (cosine over tf-idf).
func (m *ContextModel) Similarity(entity string, contextStems map[string]float64) float64 {
	vec, ok := m.vecs[entity]
	if !ok {
		return 0
	}
	dot := 0.0
	for stem, w := range contextStems {
		dot += w * vec[stem]
	}
	return dot
}

// ContextVector builds the normalized stem vector of a mention's context.
func ContextVector(context string) map[string]float64 {
	tf := make(map[string]float64)
	for _, stem := range text.ContentStems(context) {
		tf[stem]++
	}
	var norm float64
	for _, f := range tf {
		norm += f * f
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for stem := range tf {
			tf[stem] /= norm
		}
	}
	return tf
}

// Relatedness measures entity-entity semantic relatedness with the
// Milne-Witten inlink measure over the article hyperlink graph — the
// "coherence" side of the tutorial's NED equation.
type Relatedness struct {
	inlinks map[string]map[string]bool // entity -> set of linking pages
	total   int                        // total number of pages
}

// NewRelatedness returns an empty relatedness model.
func NewRelatedness() *Relatedness {
	return &Relatedness{inlinks: make(map[string]map[string]bool)}
}

// AddLinks registers one page's outgoing links to entities.
func (r *Relatedness) AddLinks(page string, targets []string) {
	for _, t := range targets {
		if r.inlinks[t] == nil {
			r.inlinks[t] = make(map[string]bool)
		}
		r.inlinks[t][page] = true
	}
	r.total++
}

// Score returns Milne-Witten relatedness in [0,1]: 1 - normalized
// log-overlap distance of the entities' inlink sets.
func (r *Relatedness) Score(a, b string) float64 {
	la, lb := r.inlinks[a], r.inlinks[b]
	if len(la) == 0 || len(lb) == 0 || r.total == 0 {
		return 0
	}
	inter := 0
	small, large := la, lb
	if len(lb) < len(la) {
		small, large = lb, la
	}
	for p := range small {
		if large[p] {
			inter++
		}
	}
	if inter == 0 {
		return 0
	}
	maxLen := math.Log(float64(max(len(la), len(lb))))
	minLen := math.Log(float64(min(len(la), len(lb))))
	interLog := math.Log(float64(inter))
	denom := math.Log(float64(r.total)) - minLen
	if denom <= 0 {
		return 1
	}
	score := 1 - (maxLen-interLog)/denom
	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}
