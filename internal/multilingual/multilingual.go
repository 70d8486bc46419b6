// Package multilingual implements the multilingual-knowledge component of
// the tutorial (§3): harvesting entity names in multiple languages from
// language-tagged labels, and aligning entities across languages by
// transliteration-aware name similarity when explicit interwiki links are
// missing.
package multilingual

import (
	"sort"
	"strings"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// Labels returns an entity's names per language from rdfs:label triples.
func Labels(st *core.Store, entity string) map[string]string {
	out := make(map[string]string)
	st.MatchFunc(rdf.Triple{S: rdf.NewIRI(entity), P: rdf.NewIRI(rdf.RDFSLabel)}, func(_ core.FactID, t rdf.Triple) bool {
		if t.O.IsLiteral() && t.O.Lang != "" {
			out[t.O.Lang] = t.O.Value
		}
		return true
	})
	return out
}

// translitPairs are substring substitutions that cost little when
// comparing names across orthographies (the systematic sound shifts the
// synthetic languages — and many real ones — apply).
var translitPairs = [][2]string{
	{"th", "t"}, {"c", "k"}, {"qu", "k"}, {"chs", "x"}, {"ei", "ai"},
	{"ie", "ia"}, {"ous", "us"}, {"j", "x"},
}

// canonicalize lowers the name and applies the transliteration folds so
// systematically shifted spellings collapse to one form.
func canonicalize(name string) string {
	s := strings.ToLower(name)
	for _, p := range translitPairs {
		// Fold the longer variant onto the shorter.
		from, to := p[0], p[1]
		if len(to) > len(from) {
			from, to = to, from
		}
		s = strings.ReplaceAll(s, from, to)
	}
	return s
}

// NameSimilarity scores two names in [0,1]: 1 for equal after
// transliteration folding, otherwise 1 - normalized Levenshtein distance
// of the folded forms.
func NameSimilarity(a, b string) float64 {
	ca, cb := canonicalize(a), canonicalize(b)
	if ca == cb {
		return 1
	}
	d := levenshtein(ca, cb)
	m := len(ca)
	if len(cb) > m {
		m = len(cb)
	}
	if m == 0 {
		return 0
	}
	return 1 - float64(d)/float64(m)
}

func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Named is one entity with a name in some language.
type Named struct {
	ID   string
	Name string
}

// Alignment links an entity of one language edition to one of another.
type Alignment struct {
	Src, Dst string
	Score    float64
}

// Align matches src entities to dst entities greedily by descending name
// similarity, one-to-one, keeping pairs with score >= minSim. This is the
// name-based fallback for building interwiki (owl:sameAs) links across
// language editions.
func Align(src, dst []Named, minSim float64) []Alignment {
	type cand struct {
		si, di int
		score  float64
	}
	var cands []cand
	for si, s := range src {
		for di, d := range dst {
			if sc := NameSimilarity(s.Name, d.Name); sc >= minSim {
				cands = append(cands, cand{si, di, sc})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if src[cands[i].si].ID != src[cands[j].si].ID {
			return src[cands[i].si].ID < src[cands[j].si].ID
		}
		return dst[cands[i].di].ID < dst[cands[j].di].ID
	})
	usedS := make([]bool, len(src))
	usedD := make([]bool, len(dst))
	var out []Alignment
	for _, c := range cands {
		if usedS[c.si] || usedD[c.di] {
			continue
		}
		usedS[c.si], usedD[c.di] = true, true
		out = append(out, Alignment{Src: src[c.si].ID, Dst: dst[c.di].ID, Score: c.score})
	}
	return out
}
