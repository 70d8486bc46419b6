package taxonomy

import (
	"sort"
	"strings"

	"kbharvest/internal/text"
)

// Web-based class harvesting (§2): set expansion over list documents
// ("SEAL-style") and Hearst-pattern extraction from running text.

// ItemList is one extracted list from a web page (e.g. bullet items).
type ItemList struct {
	Source string
	Items  []string
}

// Candidate is one set-expansion result.
type Candidate struct {
	Item  string
	Score float64
}

// Expand grows a seed set: every list containing at least minSeedHits
// seeds votes for its non-seed members, with vote weight = seed overlap /
// list size (lists dominated by seeds are more on-topic). Results are
// ranked by total vote weight.
func Expand(seeds []string, lists []ItemList, minSeedHits int) []Candidate {
	if minSeedHits < 1 {
		minSeedHits = 1
	}
	seedSet := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		seedSet[s] = true
	}
	votes := make(map[string]float64)
	for _, l := range lists {
		hits := 0
		for _, it := range l.Items {
			if seedSet[it] {
				hits++
			}
		}
		if hits < minSeedHits || len(l.Items) == 0 {
			continue
		}
		w := float64(hits) / float64(len(l.Items))
		for _, it := range l.Items {
			if !seedSet[it] {
				votes[it] += w
			}
		}
	}
	out := make([]Candidate, 0, len(votes))
	for it, v := range votes {
		out = append(out, Candidate{Item: it, Score: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// HearstFact is one (class, instance) pair extracted by a Hearst pattern.
type HearstFact struct {
	ClassNoun string // singular
	Instance  string
	Pattern   string // which pattern fired
}

// ExtractHearst finds the classic Hearst patterns in text:
//
//	NP_plural such as A, B, and C
//	many NP_plural, including A, B
//	NP_plural like A and B
//
// and emits one fact per listed instance.
func ExtractHearst(textBody string) []HearstFact {
	var out []HearstFact
	for _, sent := range text.SplitSentences(textBody) {
		toks := text.Tokenize(sent.Text)
		words := make([]string, len(toks))
		for i, t := range toks {
			words[i] = t.Text
		}
		for i := 0; i < len(words); i++ {
			lw := strings.ToLower(words[i])
			var pattern string
			var next int
			switch {
			case lw == "such" && i+1 < len(words) && strings.ToLower(words[i+1]) == "as":
				pattern, next = "such as", i+2
			case lw == "including":
				pattern, next = "including", i+1
			case lw == "like":
				pattern, next = "like", i+1
			default:
				continue
			}
			class := pluralNounBefore(words, i)
			if class == "" {
				continue
			}
			for _, inst := range properListAfter(toks, next) {
				out = append(out, HearstFact{
					ClassNoun: Singular(class),
					Instance:  inst,
					Pattern:   pattern,
				})
			}
		}
	}
	return out
}

// pluralNounBefore scans left from position i (skipping commas and
// modifiers) for the nearest plural lowercase noun.
func pluralNounBefore(words []string, i int) string {
	for j := i - 1; j >= 0 && j >= i-4; j-- {
		w := words[j]
		if w == "," {
			continue
		}
		lw := strings.ToLower(w)
		if lw == "many" || lw == "several" || lw == "some" || lw == "other" || lw == "famous" || lw == "notable" {
			continue
		}
		if isPluralNoun(lw) {
			return lw
		}
		return ""
	}
	return ""
}

// properListAfter collects the capitalized multi-word names in the
// enumeration starting at token index start: "A, B, and C ..." stops at
// the first token that is neither part of a name, a comma, nor "and".
func properListAfter(toks []text.Token, start int) []string {
	var out []string
	var current []string
	flush := func() {
		if len(current) > 0 {
			out = append(out, strings.Join(current, " "))
			current = nil
		}
	}
	for i := start; i < len(toks); i++ {
		w := toks[i].Text
		switch {
		case isCapitalizedWord(w) || (len(current) > 0 && isNamePart(w)):
			current = append(current, w)
		case w == ",":
			flush()
		case strings.EqualFold(w, "and"):
			flush()
		default:
			flush()
			return out
		}
	}
	flush()
	return out
}

func isCapitalizedWord(w string) bool {
	if w == "" {
		return false
	}
	c := w[0]
	return c >= 'A' && c <= 'Z'
}

// isNamePart accepts lowercase particles and digits inside names
// ("University of Foo", "Nova 3").
func isNamePart(w string) bool {
	if w == "of" || w == "the" {
		return true
	}
	for _, r := range w {
		if r < '0' || r > '9' {
			return false
		}
	}
	return w != ""
}
