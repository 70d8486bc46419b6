package extract

import (
	"testing"

	"kbharvest/internal/rdf"
)

func TestSplitDoc(t *testing.T) {
	d := Doc{
		Text:   "Alice founded Acme. Bob joined Acme in 1999.",
		Source: "art:1",
		Mentions: []Span{
			{Start: 0, End: 5, Entity: "kb:Alice"},
			{Start: 14, End: 18, Entity: "kb:Acme"},
			{Start: 20, End: 23, Entity: "kb:Bob"},
			{Start: 31, End: 35, Entity: "kb:Acme"},
		},
	}
	sents := SplitDoc(d)
	if len(sents) != 2 {
		t.Fatalf("sentences = %d", len(sents))
	}
	if len(sents[0].Spans) != 2 || len(sents[1].Spans) != 2 {
		t.Fatalf("span counts = %d, %d", len(sents[0].Spans), len(sents[1].Spans))
	}
	// Rebased offsets point at the right substrings.
	for _, s := range sents {
		for _, sp := range s.Spans {
			got := s.Text[sp.Start:sp.End]
			switch sp.Entity {
			case "kb:Alice":
				if got != "Alice" {
					t.Errorf("span text = %q", got)
				}
			case "kb:Acme":
				if got != "Acme" {
					t.Errorf("span text = %q", got)
				}
			}
		}
	}
	if sents[0].Source != "art:1" {
		t.Errorf("source = %q", sents[0].Source)
	}
}

func TestSplitDocMentionOnBoundary(t *testing.T) {
	// A mention that does not fall fully inside any sentence is dropped,
	// not mis-assigned.
	d := Doc{
		Text:     "Short. Another sentence here.",
		Mentions: []Span{{Start: 5, End: 9, Entity: "kb:X"}}, // straddles "." and "Ano"
	}
	sents := SplitDoc(d)
	for _, s := range sents {
		for _, sp := range s.Spans {
			if sp.Start < 0 || sp.End > len(s.Text) {
				t.Errorf("out-of-range span %+v in %q", sp, s.Text)
			}
		}
	}
}

func TestSplitDocs(t *testing.T) {
	docs := []Doc{
		{Text: "One sentence.", Source: "a"},
		{Text: "Two. Sentences.", Source: "b"},
	}
	sents := SplitDocs(docs)
	if len(sents) != 3 {
		t.Fatalf("got %d sentences", len(sents))
	}
}

func TestCandidateKey(t *testing.T) {
	a := Candidate{S: "s", P: "p", O: "o"}
	b := Candidate{S: "s", P: "p", O: "o", Confidence: 0.5}
	if a.Key() != b.Key() {
		t.Error("key should ignore confidence")
	}
	c := Candidate{S: "s", P: "p", O: "x"}
	if a.Key() == c.Key() {
		t.Error("different objects same key")
	}
}

func TestCandidateTriples(t *testing.T) {
	cs := []Candidate{
		{S: "kb:a", P: "kb:p", O: "kb:b", Confidence: 0.8},
		{S: "kb:c", P: "kb:q", O: "kb:d", Confidence: 0.3},
	}
	ts := []rdf.Triple{cs[0].Triple(), cs[1].Triple()}
	if ts[0] != rdf.T("kb:a", "kb:p", "kb:b") {
		t.Errorf("triple mismatch: %v", ts[0])
	}
	if !ts[1].S.IsIRI() || ts[1].S.Value != "kb:c" || ts[1].O.Value != "kb:d" {
		t.Errorf("bad triple %v", ts[1])
	}
}
