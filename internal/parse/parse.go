// Package parse implements a compact rule-based dependency parser over the
// POS-tagged sentences produced by internal/text. The tutorial lists
// dependency parsing among the computational-linguistics methods used for
// relational fact harvesting (§3); the distant-supervision extractor uses
// the dependency path between two entity mentions as its key feature.
//
// The parser is deterministic and attachment-rule-driven rather than
// learned: on the controlled encyclopedic register of the synthetic corpus
// (SVO clauses, passives, prepositional attachments, copulas) this yields
// accurate trees at a tiny fraction of the complexity of a trained parser.
package parse

import (
	"fmt"
	"strings"

	"kbharvest/internal/text"
)

// Root is the head index of the sentence root.
const Root = -1

// Dependency labels.
const (
	LabelRoot      = "root"
	LabelNsubj     = "nsubj"     // nominal subject
	LabelNsubjPass = "nsubjpass" // passive subject
	LabelDobj      = "dobj"      // direct object
	LabelPrep      = "prep"      // preposition attached to verb or noun
	LabelPobj      = "pobj"      // object of preposition
	LabelAux       = "aux"       // auxiliary
	LabelAuxPass   = "auxpass"   // passive auxiliary
	LabelDet       = "det"       // determiner
	LabelAmod      = "amod"      // adjectival modifier
	LabelAdvmod    = "advmod"    // adverbial modifier
	LabelNn        = "nn"        // noun compound modifier
	LabelNum       = "num"       // numeric modifier
	LabelCc        = "cc"        // coordinating conjunction
	LabelConj      = "conj"      // conjunct
	LabelAttr      = "attr"      // predicate nominal ("X is a Y")
	LabelPunct     = "punct"
	LabelDep       = "dep" // unresolved attachment
)

// Tree is a parsed sentence: the tagged tokens plus one arc per token.
type Tree struct {
	Tokens []text.TaggedToken
	// Heads[i] is the head index of token i (Root for the root token).
	Heads []int
	// Labels[i] is the dependency label of token i.
	Labels []string
}

// ChildWithLabel returns the first dependent of i carrying the label, or
// -1.
func (t *Tree) ChildWithLabel(i int, label string) int {
	for d, h := range t.Heads {
		if h == i && t.Labels[d] == label {
			return d
		}
	}
	return -1
}

// Path returns the dependency path between tokens a and b as a string such
// as "nsubj↑ root ↓dobj" — rising arcs from a to the lowest common
// ancestor, then descending arcs to b. This is the feature the
// distant-supervision extractor keys on.
func (t *Tree) Path(a, b int) string {
	if a < 0 || b < 0 || a >= len(t.Heads) || b >= len(t.Heads) {
		return ""
	}
	// Ancestor chains.
	chain := func(i int) []int {
		var c []int
		for i != Root {
			c = append(c, i)
			i = t.Heads[i]
			if len(c) > len(t.Heads) { // cycle guard
				break
			}
		}
		return c
	}
	ca, cb := chain(a), chain(b)
	anc := map[int]int{} // token -> depth in ca
	for d, tok := range ca {
		anc[tok] = d
	}
	lca, lcaDepthB := -1, -1
	for d, tok := range cb {
		if _, ok := anc[tok]; ok {
			lca, lcaDepthB = tok, d
			break
		}
	}
	if lca == -1 {
		return ""
	}
	var parts []string
	for _, tok := range ca {
		if tok == lca {
			break
		}
		parts = append(parts, t.Labels[tok]+"↑")
	}
	lcaWord := text.Lemma(t.Tokens[lca].Text, t.Tokens[lca].Tag)
	parts = append(parts, lcaWord)
	var down []string
	for d := 0; d < lcaDepthB; d++ {
		down = append(down, "↓"+t.Labels[cb[d]])
	}
	for i := len(down) - 1; i >= 0; i-- {
		parts = append(parts, down[i])
	}
	return strings.Join(parts, " ")
}

// String renders the tree one arc per line for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	for i, tok := range t.Tokens {
		head := "ROOT"
		if t.Heads[i] != Root {
			head = t.Tokens[t.Heads[i]].Text
		}
		fmt.Fprintf(&b, "%-15s %-6s %-10s %s\n", tok.Text, tok.Tag, t.Labels[i], head)
	}
	return b.String()
}

// Parse builds a dependency tree for one tagged sentence.
func Parse(tokens []text.TaggedToken) *Tree {
	n := len(tokens)
	t := &Tree{
		Tokens: tokens,
		Heads:  make([]int, n),
		Labels: make([]string, n),
	}
	for i := range t.Heads {
		t.Heads[i] = Root // provisional; exactly one will stay Root
		t.Labels[i] = LabelDep
	}
	if n == 0 {
		return t
	}

	tag := func(i int) string { return tokens[i].Tag }
	isVerb := func(i int) bool {
		switch tag(i) {
		case text.TagVB, text.TagVBD, text.TagVBZ, text.TagVBP, text.TagVBG, text.TagVBN:
			return true
		}
		return false
	}
	isNoun := func(i int) bool {
		switch tag(i) {
		case text.TagNN, text.TagNNS, text.TagNNP, text.TagPRP, text.TagCD:
			return true
		}
		return false
	}
	isBeForm := func(i int) bool {
		switch strings.ToLower(tokens[i].Text) {
		case "is", "are", "was", "were", "be", "been", "being", "am":
			return true
		}
		return false
	}

	// 1. Find the main verb: the last verb of the first verb group; in
	// "was founded", the participle is the main verb and "was" its
	// auxiliary. A copula clause ("X is a Y") has no second verb; then the
	// be-form is provisionally the main verb and is demoted to cop later
	// if a predicate nominal follows.
	main := -1
	for i := 0; i < n; i++ {
		if !isVerb(i) {
			continue
		}
		main = i
		// Extend over the verb group: aux (be/have/modal) + participles.
		j := i
		for j+1 < n && (isVerb(j+1) || (tag(j+1) == text.TagRB && j+2 < n && isVerb(j+2))) {
			if tag(j+1) == text.TagRB {
				j += 2
			} else {
				j++
			}
			main = j
		}
		break
	}

	// 2. Noun-phrase internal structure: determiners, adjectives, numbers
	// and compound nouns attach to the rightmost noun of their NP run.
	attachNPInternals(t, tokens)

	if main == -1 {
		// No verb: promote the last noun head to root, attach the rest.
		root := -1
		for i := n - 1; i >= 0; i-- {
			if isNoun(i) && t.Heads[i] == Root {
				if root == -1 {
					root = i
					t.Labels[i] = LabelRoot
				}
			}
		}
		if root == -1 {
			t.Labels[0] = LabelRoot
			root = 0
		}
		attachLeftovers(t, root)
		return t
	}

	t.Heads[main] = Root
	t.Labels[main] = LabelRoot

	// 3. Auxiliaries and adverbs before the main verb inside its group.
	passive := false
	for i := main - 1; i >= 0 && (isVerb(i) || tag(i) == text.TagRB || tag(i) == text.TagMD); i-- {
		t.Heads[i] = main
		switch {
		case tag(i) == text.TagRB:
			t.Labels[i] = LabelAdvmod
		case tag(i) == text.TagMD:
			t.Labels[i] = LabelAux
		case isBeForm(i) && tag(main) == text.TagVBN:
			t.Labels[i] = LabelAuxPass
			passive = true
		default:
			t.Labels[i] = LabelAux
		}
	}

	// 4. Subject: head noun of the NP immediately left of the verb group.
	subj := -1
	for i := main - 1; i >= 0; i-- {
		if t.Heads[i] == main || (isVerb(i) && i != main) {
			continue // skip the verb group
		}
		if isNoun(i) && npHead(t, i) == i {
			subj = i
			break
		}
		if tag(i) == text.TagPct {
			break
		}
	}
	if subj != -1 {
		t.Heads[subj] = main
		if passive {
			t.Labels[subj] = LabelNsubjPass
		} else {
			t.Labels[subj] = LabelNsubj
		}
	}

	// 5. Right side of the verb: objects, predicate nominals,
	// prepositional phrases. Scan left to right.
	copula := isBeForm(main) && tag(main) != text.TagVBN
	lastNounHead := main
	i := main + 1
	for i < n {
		switch {
		case tag(i) == text.TagIN || tag(i) == text.TagTO:
			// Preposition: attach to nearest verb-or-noun on the left
			// (here: main verb unless directly after a noun head).
			prepHead := main
			if lastNounHead != main && i > 0 && npHead(t, i-1) == lastNounHead {
				prepHead = lastNounHead
			}
			t.Heads[i] = prepHead
			t.Labels[i] = LabelPrep
			// Its object: next NP head.
			if obj := nextNPHead(t, i+1); obj != -1 {
				t.Heads[obj] = i
				t.Labels[obj] = LabelPobj
				lastNounHead = obj
				i = obj + 1
				continue
			}
			i++
		case isNoun(i) && npHead(t, i) == i && t.Heads[i] == Root:
			if copula {
				t.Heads[i] = main
				t.Labels[i] = LabelAttr
			} else if t.ChildWithLabel(main, LabelDobj) == -1 && !passive {
				t.Heads[i] = main
				t.Labels[i] = LabelDobj
			} else {
				// Additional bare NP: conjunct of the previous object.
				t.Heads[i] = lastNounHead
				t.Labels[i] = LabelConj
			}
			lastNounHead = i
			i++
		case tag(i) == text.TagCC:
			t.Heads[i] = lastNounHead
			t.Labels[i] = LabelCc
			// Conjunct NP after the conjunction.
			if obj := nextNPHead(t, i+1); obj != -1 {
				t.Heads[obj] = lastNounHead
				t.Labels[obj] = LabelConj
				i = obj + 1
				continue
			}
			i++
		case tag(i) == text.TagRB:
			t.Heads[i] = main
			t.Labels[i] = LabelAdvmod
			i++
		case tag(i) == text.TagPct:
			t.Heads[i] = main
			t.Labels[i] = LabelPunct
			i++
		default:
			i++
		}
	}

	// 6. Leftover tokens (left-of-subject adverbs, punctuation, stray
	// prepositions before the subject) attach to the main verb.
	attachLeftovers(t, main)
	return t
}

// attachNPInternals links det/amod/num/nn dependents to the rightmost noun
// of each contiguous noun-phrase run.
func attachNPInternals(t *Tree, tokens []text.TaggedToken) {
	n := len(tokens)
	i := 0
	for i < n {
		switch tokens[i].Tag {
		case text.TagDT, text.TagJJ, text.TagCD, text.TagNN, text.TagNNS, text.TagNNP:
			// Find the extent of this NP run.
			j := i
			lastNoun := -1
			for j < n {
				switch tokens[j].Tag {
				case text.TagDT, text.TagJJ, text.TagCD:
					j++
					continue
				case text.TagNN, text.TagNNS, text.TagNNP:
					lastNoun = j
					j++
					continue
				}
				break
			}
			if lastNoun == -1 {
				i = j
				continue
			}
			for k := i; k < lastNoun; k++ {
				t.Heads[k] = lastNoun
				switch tokens[k].Tag {
				case text.TagDT:
					t.Labels[k] = LabelDet
				case text.TagJJ:
					t.Labels[k] = LabelAmod
				case text.TagCD:
					t.Labels[k] = LabelNum
				default:
					t.Labels[k] = LabelNn
				}
			}
			i = j
		default:
			i++
		}
	}
}

// npHead returns the index of the noun that token i's NP run attaches to
// (i itself if it is the head).
func npHead(t *Tree, i int) int {
	if i < 0 || i >= len(t.Heads) {
		return -1
	}
	h := t.Heads[i]
	if h != Root && (t.Labels[i] == LabelDet || t.Labels[i] == LabelAmod || t.Labels[i] == LabelNum || t.Labels[i] == LabelNn) {
		return h
	}
	return i
}

// nextNPHead finds the head of the next NP at or after position i.
func nextNPHead(t *Tree, i int) int {
	for j := i; j < len(t.Tokens); j++ {
		switch t.Tokens[j].Tag {
		case text.TagNN, text.TagNNS, text.TagNNP, text.TagPRP, text.TagCD:
			return npHead(t, j)
		case text.TagDT, text.TagJJ:
			continue
		default:
			return -1
		}
	}
	return -1
}

// attachLeftovers points every unattached non-root token at fallbackHead.
func attachLeftovers(t *Tree, fallbackHead int) {
	for i := range t.Heads {
		if i == fallbackHead {
			continue
		}
		if t.Heads[i] == Root && t.Labels[i] != LabelRoot {
			t.Heads[i] = fallbackHead
			if t.Tokens[i].Tag == text.TagPct {
				t.Labels[i] = LabelPunct
			} else {
				t.Labels[i] = LabelDep
			}
		}
	}
}
