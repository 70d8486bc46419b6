// Package extract holds the shared input/output types of the fact
// extractors (§3): annotated sentences in, fact candidates out. The three
// extractor families of the tutorial's method spectrum live in the
// subpackages patterns (pattern matching), openie (open information
// extraction), and distant (statistical learning via distant supervision).
package extract

import (
	"sort"

	"kbharvest/internal/rdf"
	"kbharvest/internal/text"
)

// Span marks one resolved entity mention inside a sentence.
type Span struct {
	Start, End int
	Entity     string // entity IRI
}

// Sentence is extraction input: text plus resolved entity mentions.
// (Resolution comes either from gold annotations or from the NED stage,
// letting experiments isolate extractor quality from linker quality.)
type Sentence struct {
	Text   string
	Spans  []Span
	Source string
}

// Candidate is one extracted fact candidate.
type Candidate struct {
	S, P, O    string
	Confidence float64
	Source     string // provenance (article/sentence/extractor)
	Middle     string // pattern context or relation phrase that fired
}

// Key returns the (s,p,o) identity of the candidate.
func (c Candidate) Key() string { return c.S + "\x00" + c.P + "\x00" + c.O }

// Triple converts the candidate to an IRI triple (confidence and
// provenance are carried separately, as core.FactInfo).
func (c Candidate) Triple() rdf.Triple { return rdf.T(c.S, c.P, c.O) }

// Doc is a text with entity-mention annotations (an article body, a web
// page, a post).
type Doc struct {
	Text     string
	Source   string
	Mentions []Span
}

// SplitDoc cuts a document into annotated sentences, assigning each
// mention to the sentence that contains it (offsets rebased).
func SplitDoc(d Doc) []Sentence {
	sents := text.SplitSentences(d.Text)
	out := make([]Sentence, len(sents))
	mentions := append([]Span(nil), d.Mentions...)
	sort.Slice(mentions, func(i, j int) bool { return mentions[i].Start < mentions[j].Start })
	mi := 0
	for i, s := range sents {
		out[i] = Sentence{Text: s.Text, Source: d.Source}
		for mi < len(mentions) && mentions[mi].Start < s.End {
			m := mentions[mi]
			if m.Start >= s.Start && m.End <= s.End {
				out[i].Spans = append(out[i].Spans, Span{
					Start: m.Start - s.Start, End: m.End - s.Start, Entity: m.Entity,
				})
			}
			mi++
		}
	}
	return out
}

// SplitDocs flattens SplitDoc over a document collection.
func SplitDocs(docs []Doc) []Sentence {
	var out []Sentence
	for _, d := range docs {
		out = append(out, SplitDoc(d)...)
	}
	return out
}
