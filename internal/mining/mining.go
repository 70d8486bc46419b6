// Package mining implements frequent-sequence mining. The tutorial names
// "frequent sequence mining" as one of the big-data techniques open
// information extraction borrows (§3): mining frequent word sequences
// between entity pairs surfaces the prototypic relation phrases that open
// IE promotes to patterns (experiment E9).
package mining

import (
	"sort"
	"strings"
)

// Sequence is one input sequence of items (for us: tokens).
type Sequence []string

// Pattern is a frequent subsequence with its support count.
type Pattern struct {
	Items   []string
	Support int
}

// String renders the pattern items space-joined.
func (p Pattern) String() string { return strings.Join(p.Items, " ") }

// ContiguousPatterns mines frequent contiguous subsequences (n-grams) of
// length [minLen, maxLen] with support >= minSupport — the variant used to
// find relation phrases, where gaps would break the phrase. Supports are
// sequence counts (each sequence counts once however often the pattern
// occurs inside it), and patterns come sorted by support, then text.
func ContiguousPatterns(db []Sequence, minSupport, minLen, maxLen int) []Pattern {
	counts := make(map[string]int)
	for _, seq := range db {
		seen := make(map[string]bool) // count once per sequence
		for n := minLen; n <= maxLen; n++ {
			for i := 0; i+n <= len(seq); i++ {
				key := strings.Join(seq[i:i+n], "\x00")
				if !seen[key] {
					seen[key] = true
					counts[key]++
				}
			}
		}
	}
	var out []Pattern
	for key, c := range counts {
		if c >= minSupport {
			out = append(out, Pattern{Items: strings.Split(key, "\x00"), Support: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].String() < out[j].String()
	})
	return out
}
