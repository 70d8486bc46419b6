package text

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Steve Jobs founded Apple in 1976.")
	want := []Token{{"Steve", 0, 5}, {"Jobs", 6, 10}, {"founded", 11, 18}, {"Apple", 19, 24}, {"in", 25, 27}, {"1976", 28, 32}, {".", 32, 33}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizePunctuationAndHyphens(t *testing.T) {
	got := Tokenize("state-of-the-art, isn't it?")
	want := []Token{{"state-of-the-art", 0, 16}, {",", 16, 17}, {"isn't", 18, 23}, {"it", 24, 26}, {"?", 26, 27}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDottedAbbreviation(t *testing.T) {
	got := Tokenize("He moved to the U.S. in 1990.")
	if !slices.Contains(got, Token{"U.S.", 16, 20}) {
		t.Errorf("expected dotted abbreviation token, got %v", got)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	s := "Apple was founded."
	for _, tok := range Tokenize(s) {
		if s[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs %q", s[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Über München—great city")
	if !slices.Contains(got, Token{"Über", 0, 5}) || !slices.Contains(got, Token{"München", 6, 14}) {
		t.Errorf("unicode words lost: %v", got)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("   \t\n "); len(got) != 0 {
		t.Errorf("Tokenize(spaces) = %v", got)
	}
}

// Property: concatenated tokens with offsets reconstruct the non-space
// content of the input; offsets are monotonically increasing.
func TestTokenizeOffsetsQuick(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		prev := -1
		for _, tok := range toks {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if tok.Start <= prev {
				return false
			}
			prev = tok.Start
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitSentencesBasic(t *testing.T) {
	text := "Steve Jobs founded Apple. He was born in San Francisco! Did he also found NeXT?"
	got := SplitSentences(text)
	if len(got) != 3 {
		t.Fatalf("got %d sentences: %+v", len(got), got)
	}
	if got[0].Text != "Steve Jobs founded Apple." {
		t.Errorf("first = %q", got[0].Text)
	}
	if got[2].Text != "Did he also found NeXT?" {
		t.Errorf("third = %q", got[2].Text)
	}
}

func TestSplitSentencesAbbreviations(t *testing.T) {
	text := "Dr. Smith works at Apple Inc. in Cupertino. He is busy."
	got := SplitSentences(text)
	// "Dr." must not split; "Inc." is a known abbreviation so no split either.
	if len(got) != 2 {
		t.Fatalf("got %d sentences: %+v", len(got), got)
	}
	if !strings.HasPrefix(got[0].Text, "Dr. Smith") {
		t.Errorf("first = %q", got[0].Text)
	}
}

func TestSplitSentencesDecimals(t *testing.T) {
	text := "The phone costs 3.99 dollars. It is cheap."
	got := SplitSentences(text)
	if len(got) != 2 {
		t.Fatalf("decimal split wrong: %+v", got)
	}
}

func TestSplitSentencesParagraphBreak(t *testing.T) {
	text := "First paragraph without period\n\nSecond paragraph."
	got := SplitSentences(text)
	if len(got) != 2 {
		t.Fatalf("paragraph split wrong: %+v", got)
	}
}

func TestSplitSentencesOffsets(t *testing.T) {
	text := "  One. Two!  Three?  "
	for _, s := range SplitSentences(text) {
		if text[s.Start:s.End] != s.Text {
			t.Errorf("offset mismatch: %q vs %q", text[s.Start:s.End], s.Text)
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
