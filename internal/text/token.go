// Package text is the from-scratch natural-language processing substrate of
// the reproduction: tokenizer, sentence splitter, Porter stemmer, stopword
// list, part-of-speech tagger, and phrase chunker.
//
// The tutorial's extraction pipelines (§3) assume "computational
// linguistics" components such as tokenizers and parsers; since the repro
// environment has no NLP libraries (the stated reproduction gate), this
// package provides compact rule-based implementations over which the
// extractors run. They are deliberately conservative: high precision on the
// controlled synthetic corpus, graceful degradation on arbitrary English.
package text

import (
	"strings"
	"unicode"
)

// Token is one token with its byte offsets into the original string.
type Token struct {
	Text  string
	Start int // byte offset of first byte
	End   int // byte offset one past last byte
}

// Tokenize splits s into word, number, and punctuation tokens. Rules:
//
//   - maximal runs of letters/digits/apostrophes/hyphens form one token
//     ("don't", "state-of-the-art", "iPhone5");
//   - each punctuation rune is its own token;
//   - a trailing sentence period is split off ("Inc." keeps its period only
//     when the token is a known abbreviation).
func Tokenize(s string) []Token {
	var out []Token
	i := 0
	for i < len(s) {
		r, size := decodeRune(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case isWordRune(r):
			start := i
			for i < len(s) {
				r2, sz := decodeRune(s[i:])
				if !isWordRune(r2) {
					break
				}
				i += sz
			}
			tok := s[start:i]
			// "U.S." style internal periods: absorb alternating
			// letter-period sequences.
			for i < len(s) && s[i] == '.' && isAbbrevSoFar(tok) {
				tok += "."
				i++
				start2 := i
				for i < len(s) {
					r2, sz := decodeRune(s[i:])
					if !isWordRune(r2) {
						break
					}
					i += sz
				}
				tok += s[start2:i]
			}
			out = append(out, Token{Text: tok, Start: start, End: i})
		default:
			out = append(out, Token{Text: s[i : i+size], Start: i, End: i + size})
			i += size
		}
	}
	return out
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' || r == '-' || r == '_'
}

// isAbbrevSoFar reports whether tok looks like the prefix of a dotted
// abbreviation ("U", "U.S", "Inc" is NOT — only single letters qualify).
func isAbbrevSoFar(tok string) bool {
	parts := strings.Split(tok, ".")
	last := parts[len(parts)-1]
	return len(last) == 1 && unicode.IsUpper(rune(last[0]))
}

func decodeRune(s string) (rune, int) {
	if s == "" {
		return 0, 0
	}
	if s[0] < 0x80 {
		return rune(s[0]), 1
	}
	for i, r := range s {
		_ = i
		n := 1
		for n < len(s) && s[n]&0xC0 == 0x80 {
			n++
		}
		return r, n
	}
	return 0, 1
}

// knownAbbrevs are tokens whose trailing period is part of the token, so a
// following capitalized word does not necessarily open a new sentence.
var knownAbbrevs = map[string]bool{
	"Mr": true, "Mrs": true, "Ms": true, "Dr": true, "Prof": true,
	"Inc": true, "Corp": true, "Ltd": true, "Co": true, "St": true,
	"Jr": true, "Sr": true, "vs": true, "etc": true, "approx": true,
}

// Sentence is one sentence with byte offsets into the original text.
type Sentence struct {
	Text  string
	Start int
	End   int
}

// SplitSentences segments text into sentences at ., !, ? boundaries,
// keeping known abbreviations and decimal numbers intact.
func SplitSentences(text string) []Sentence {
	var out []Sentence
	start := 0
	i := 0
	flush := func(end int) {
		seg := strings.TrimSpace(text[start:end])
		if seg != "" {
			// Recompute trimmed offsets.
			b := start + strings.Index(text[start:end], seg)
			out = append(out, Sentence{Text: seg, Start: b, End: b + len(seg)})
		}
		start = end
	}
	for i < len(text) {
		c := text[i]
		if c == '!' || c == '?' {
			flush(i + 1)
			i++
			continue
		}
		if c == '.' {
			// Decimal number: digit on both sides.
			if i > 0 && i+1 < len(text) && isDigit(text[i-1]) && isDigit(text[i+1]) {
				i++
				continue
			}
			// Abbreviation: preceding word is a known abbreviation or a
			// single capital letter.
			w := precedingWord(text, i)
			if knownAbbrevs[w] || (len(w) == 1 && w[0] >= 'A' && w[0] <= 'Z') {
				i++
				continue
			}
			flush(i + 1)
			i++
			continue
		}
		if c == '\n' && i+1 < len(text) && text[i+1] == '\n' {
			// Paragraph break ends a sentence even without punctuation.
			flush(i)
			i += 2
			start = i
			continue
		}
		i++
	}
	flush(len(text))
	return out
}

func precedingWord(s string, i int) string {
	end := i
	j := i
	for j > 0 {
		r := rune(s[j-1])
		if !unicode.IsLetter(r) {
			break
		}
		j--
	}
	return s[j:end]
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
