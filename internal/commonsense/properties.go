// Package commonsense implements the commonsense-knowledge component of
// the tutorial (§3): harvesting concept-level knowledge that entity-centric
// KBs miss — properties of concepts ("apples can be red, green, juicy"),
// part-whole relations ("the mouthpiece of a clarinet"), and commonsense
// rules mined from the KB itself with AMIE-style support/confidence
// statistics ("the spouse of a child's mother is usually the father").
package commonsense

import (
	"strings"

	"kbharvest/internal/text"
)

// PropertyFact states that instances of a concept can have a property.
type PropertyFact struct {
	Concept  string // singular concept noun ("apple")
	Property string // adjective ("red")
	Pattern  string // which pattern found it
}

// PartFact states a part-whole relation between concepts.
type PartFact struct {
	Part, Whole string
}

// ExtractProperties finds concept-property patterns in text:
//
//	<plural-noun> can be A, B, and C
//	<plural-noun> are usually A
//	<plural-noun> are A and B
func ExtractProperties(body string) []PropertyFact {
	var out []PropertyFact
	for _, sent := range text.SplitSentences(body) {
		toks := text.Tokenize(sent.Text)
		for i := 0; i+1 < len(toks); i++ {
			raw := toks[i].Text
			// Mid-sentence capitalized words are proper nouns, not
			// concepts; sentence-initially the case is uninformative.
			if i > 0 && raw != strings.ToLower(raw) {
				continue
			}
			w := strings.ToLower(raw)
			if !isPluralConcept(w) {
				continue
			}
			j := i + 1
			pattern := ""
			switch {
			case strings.EqualFold(toks[j].Text, "can") && j+1 < len(toks) && strings.EqualFold(toks[j+1].Text, "be"):
				pattern, j = "can be", j+2
			case strings.EqualFold(toks[j].Text, "are"):
				pattern, j = "are", j+1
				// Skip hedges.
				for j < len(toks) && isHedge(toks[j].Text) {
					j++
				}
			default:
				continue
			}
			concept := singularize(w)
			for _, adj := range adjectiveList(toks, j) {
				out = append(out, PropertyFact{Concept: concept, Property: adj, Pattern: pattern})
			}
		}
	}
	return out
}

func isHedge(w string) bool {
	switch strings.ToLower(w) {
	case "usually", "often", "typically", "generally", "sometimes", "mostly":
		return true
	}
	return false
}

// adjectiveList collects the lowercase adjectives in an enumeration
// starting at token j ("red , green , and juicy").
func adjectiveList(toks []text.Token, j int) []string {
	var out []string
	for ; j < len(toks); j++ {
		w := toks[j].Text
		switch {
		case w == ",", strings.EqualFold(w, "and"), strings.EqualFold(w, "or"):
			continue
		case isLowerAlpha(w) && !text.IsStopword(w):
			tagged := text.TagWords([]string{w})
			if len(tagged) == 1 && (tagged[0].Tag == text.TagJJ || tagged[0].Tag == text.TagNN || tagged[0].Tag == text.TagVBN) {
				out = append(out, strings.ToLower(w))
				continue
			}
			return out
		default:
			return out
		}
	}
	return out
}

// ExtractParts finds "the X of a Y" part-whole constructions.
func ExtractParts(body string) []PartFact {
	var out []PartFact
	seen := map[PartFact]bool{}
	for _, sent := range text.SplitSentences(body) {
		toks := text.Tokenize(sent.Text)
		for i := 0; i+4 < len(toks); i++ {
			if !strings.EqualFold(toks[i].Text, "the") {
				continue
			}
			part := strings.ToLower(toks[i+1].Text)
			if !strings.EqualFold(toks[i+2].Text, "of") {
				continue
			}
			art := strings.ToLower(toks[i+3].Text)
			if art != "a" && art != "an" {
				continue
			}
			whole := strings.ToLower(toks[i+4].Text)
			if !isLowerAlpha(part) || !isLowerAlpha(whole) ||
				text.IsStopword(part) || text.IsStopword(whole) {
				continue
			}
			f := PartFact{Part: part, Whole: whole}
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

func isPluralConcept(w string) bool {
	return len(w) > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") &&
		isLowerAlpha(w) && !text.IsStopword(w)
}

func singularize(w string) string {
	switch {
	case strings.HasSuffix(w, "ies"):
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "es") && (strings.HasSuffix(w, "xes") || strings.HasSuffix(w, "ches") || strings.HasSuffix(w, "shes")):
		return w[:len(w)-2]
	default:
		return strings.TrimSuffix(w, "s")
	}
}

func isLowerAlpha(w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}
