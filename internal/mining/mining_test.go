package mining

import (
	"math/rand"
	"strings"
	"testing"
)

func TestContiguousCountsOncePerSequence(t *testing.T) {
	db := []Sequence{{"a", "a", "a"}}
	pats := ContiguousPatterns(db, 1, 1, 1)
	for _, p := range pats {
		if p.String() == "a" && p.Support != 1 {
			t.Errorf("support = %d, want 1", p.Support)
		}
	}
}

func TestContiguousSortedBySupport(t *testing.T) {
	db := []Sequence{
		{"a", "b"}, {"a", "b"}, {"a"}, {"c"},
	}
	pats := ContiguousPatterns(db, 1, 1, 2)
	for i := 1; i < len(pats); i++ {
		if pats[i-1].Support < pats[i].Support {
			t.Fatalf("not sorted by support: %v", pats)
		}
	}
}

// Property: every reported pattern occurs contiguously in exactly
// `support` distinct sequences, and no n-gram that does so is missing.
func TestContiguousSupportsAreCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vocab := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 20; trial++ {
		db := make([]Sequence, 12)
		for i := range db {
			n := 1 + rng.Intn(6)
			s := make(Sequence, n)
			for j := range s {
				s[j] = vocab[rng.Intn(len(vocab))]
			}
			db[i] = s
		}
		want := map[string]int{}
		for _, seq := range db {
			seen := map[string]bool{}
			for n := 1; n <= 3; n++ {
				for i := 0; i+n <= len(seq); i++ {
					seen[strings.Join(seq[i:i+n], " ")] = true
				}
			}
			for k := range seen {
				want[k]++
			}
		}
		got := map[string]int{}
		for _, p := range ContiguousPatterns(db, 2, 1, 3) {
			got[p.String()] = p.Support
			if want[p.String()] != p.Support {
				t.Fatalf("trial %d: pattern %v support %d, brute force %d", trial, p.Items, p.Support, want[p.String()])
			}
		}
		for k, c := range want {
			if _, ok := got[k]; c >= 2 && !ok {
				t.Fatalf("trial %d: %q occurs in %d sequences but was not reported", trial, k, c)
			}
		}
	}
}

func TestContiguousPatterns(t *testing.T) {
	db := []Sequence{
		{"was", "founded", "by"},
		{"was", "founded", "by"},
		{"was", "acquired", "by"},
	}
	pats := ContiguousPatterns(db, 2, 2, 3)
	support := map[string]int{}
	for _, p := range pats {
		support[p.String()] = p.Support
	}
	if support["was founded by"] != 2 {
		t.Errorf("'was founded by' support = %d", support["was founded by"])
	}
	if _, ok := support["was by"]; ok {
		t.Error("gapped pattern should not appear in contiguous mining")
	}
}

func TestContiguousMinLen(t *testing.T) {
	db := []Sequence{{"a", "b"}, {"a", "b"}}
	pats := ContiguousPatterns(db, 2, 2, 2)
	for _, p := range pats {
		if len(p.Items) < 2 {
			t.Errorf("pattern shorter than minLen: %v", p)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := ContiguousPatterns(nil, 1, 1, 3); len(got) != 0 {
		t.Errorf("ContiguousPatterns(nil) = %v", got)
	}
}
