// Package ned implements named-entity disambiguation (§4): mapping
// ambiguous mentions ("Jobs", "Galaxy") to canonical KB entities. The
// linker follows the AIDA recipe the tutorial describes: a name dictionary
// with mention-entity priors, context similarity between the mention's
// surroundings and an entity's keyphrase profile, and a coherence measure
// between candidate entities resolved jointly across all mentions of a
// document. Baselines (prior-only, context-only) are first-class so the
// ablation of experiment E13 falls out naturally.
package ned

import (
	"sort"
	"strings"
)

// Candidate is one entity a surface form may refer to, with its prior.
type Candidate struct {
	Entity string
	Prior  float64
}

// Dictionary maps normalized surface forms to candidate entities.
type Dictionary struct {
	cands map[string][]Candidate
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{cands: make(map[string][]Candidate)}
}

// normSurface folds case and squeezes whitespace.
func normSurface(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// observations accumulate before Finalize computes priors.
type obs struct {
	entity string
	count  float64
}

// Builder accumulates (surface, entity) observations — from KB labels,
// aliases, and hyperlink anchor statistics — and derives priors from the
// observation counts, mirroring how anchor-text statistics give mention
// priors over Wikipedia.
type Builder struct {
	seen map[string][]obs
}

// NewBuilder returns an empty dictionary builder.
func NewBuilder() *Builder { return &Builder{seen: make(map[string][]obs)} }

// Observe records that surface referred to entity with the given weight.
func (b *Builder) Observe(surface, entity string, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	key := normSurface(surface)
	if key == "" {
		return
	}
	for i := range b.seen[key] {
		if b.seen[key][i].entity == entity {
			b.seen[key][i].count += weight
			return
		}
	}
	b.seen[key] = append(b.seen[key], obs{entity: entity, count: weight})
}

// Build normalizes counts into priors.
func (b *Builder) Build() *Dictionary {
	d := NewDictionary()
	for surface, entries := range b.seen {
		total := 0.0
		for _, e := range entries {
			total += e.count
		}
		list := make([]Candidate, 0, len(entries))
		for _, e := range entries {
			list = append(list, Candidate{Entity: e.entity, Prior: e.count / total})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Prior != list[j].Prior {
				return list[i].Prior > list[j].Prior
			}
			return list[i].Entity < list[j].Entity
		})
		d.cands[surface] = list
	}
	return d
}

// Candidates returns the candidate entities of a surface form, most
// probable first.
func (d *Dictionary) Candidates(surface string) []Candidate {
	return d.cands[normSurface(surface)]
}

// DetectedMention is one dictionary hit in free text.
type DetectedMention struct {
	Start, End int
	Surface    string
}

// DetectMentions scans text for dictionary surface forms, longest match
// first, non-overlapping. It considers token-aligned spans of up to
// maxWords words.
func (d *Dictionary) DetectMentions(text string, maxWords int) []DetectedMention {
	if maxWords < 1 {
		maxWords = 3
	}
	words := tokenizeOffsets(text)
	var out []DetectedMention
	i := 0
	for i < len(words) {
		matched := false
		for n := maxWords; n >= 1; n-- {
			if i+n > len(words) {
				continue
			}
			start, end := words[i].start, words[i+n-1].end
			surface := text[start:end]
			if _, ok := d.cands[normSurface(surface)]; ok {
				out = append(out, DetectedMention{Start: start, End: end, Surface: surface})
				i += n
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

type wordSpan struct{ start, end int }

func tokenizeOffsets(s string) []wordSpan {
	var out []wordSpan
	i := 0
	for i < len(s) {
		for i < len(s) && !isWordByte(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		for i < len(s) && isWordByte(s[i]) {
			i++
		}
		out = append(out, wordSpan{start, i})
	}
	return out
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '\'' || b == '-' || b >= 0x80
}
