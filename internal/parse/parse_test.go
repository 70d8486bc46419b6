package parse

import (
	"slices"
	"strings"
	"testing"

	"kbharvest/internal/text"
)

// find returns the index of the first token with the given text.
func find(t *Tree, word string) int {
	for i, tok := range t.Tokens {
		if tok.Text == word {
			return i
		}
	}
	return -1
}

func TestParseSVO(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Steve Jobs founded Apple")))
	v := find(tr, "founded")
	subj := find(tr, "Jobs")
	obj := find(tr, "Apple")
	if tr.Heads[v] != Root || tr.Labels[v] != LabelRoot {
		t.Errorf("verb not root: %s", tr)
	}
	if tr.Heads[subj] != v || tr.Labels[subj] != LabelNsubj {
		t.Errorf("subject wrong: %s", tr)
	}
	if tr.Heads[obj] != v || tr.Labels[obj] != LabelDobj {
		t.Errorf("object wrong: %s", tr)
	}
	// "Steve" is a compound modifier of "Jobs".
	if s := find(tr, "Steve"); tr.Heads[s] != subj || tr.Labels[s] != LabelNn {
		t.Errorf("compound wrong: %s", tr)
	}
}

func TestParsePassive(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Apple was founded by Steve Jobs")))
	v := find(tr, "founded")
	was := find(tr, "was")
	apple := find(tr, "Apple")
	by := find(tr, "by")
	jobs := find(tr, "Jobs")
	if tr.Heads[v] != Root {
		t.Fatalf("main verb wrong:\n%s", tr)
	}
	if tr.Labels[was] != LabelAuxPass || tr.Heads[was] != v {
		t.Errorf("auxpass wrong:\n%s", tr)
	}
	if tr.Labels[apple] != LabelNsubjPass {
		t.Errorf("passive subject wrong:\n%s", tr)
	}
	if tr.Heads[by] != v || tr.Labels[by] != LabelPrep {
		t.Errorf("prep wrong:\n%s", tr)
	}
	if tr.Heads[jobs] != by || tr.Labels[jobs] != LabelPobj {
		t.Errorf("pobj wrong:\n%s", tr)
	}
}

func TestParsePrepositionalAttachment(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Jobs founded Apple in Cupertino")))
	in := find(tr, "in")
	cup := find(tr, "Cupertino")
	if tr.Heads[cup] != in || tr.Labels[cup] != LabelPobj {
		t.Errorf("pobj wrong:\n%s", tr)
	}
	if tr.Labels[in] != LabelPrep {
		t.Errorf("prep wrong:\n%s", tr)
	}
}

func TestParseCopula(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Jobs is an entrepreneur")))
	is := find(tr, "is")
	attr := find(tr, "entrepreneur")
	if tr.Heads[is] != Root {
		t.Fatalf("copula should head the clause:\n%s", tr)
	}
	if tr.Heads[attr] != is || tr.Labels[attr] != LabelAttr {
		t.Errorf("attr wrong:\n%s", tr)
	}
}

func TestParseNPInternals(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("The famous entrepreneur created a small company")))
	the := find(tr, "The")
	famous := find(tr, "famous")
	ent := find(tr, "entrepreneur")
	if tr.Heads[the] != ent || tr.Labels[the] != LabelDet {
		t.Errorf("det wrong:\n%s", tr)
	}
	if tr.Heads[famous] != ent || tr.Labels[famous] != LabelAmod {
		t.Errorf("amod wrong:\n%s", tr)
	}
}

func TestParseConjunction(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Jobs founded Apple and NeXT")))
	apple := find(tr, "Apple")
	next := find(tr, "NeXT")
	and := find(tr, "and")
	if tr.Labels[apple] != LabelDobj {
		t.Errorf("first conjunct wrong:\n%s", tr)
	}
	if tr.Heads[next] != apple || tr.Labels[next] != LabelConj {
		t.Errorf("conj wrong:\n%s", tr)
	}
	if tr.Heads[and] != apple || tr.Labels[and] != LabelCc {
		t.Errorf("cc wrong:\n%s", tr)
	}
}

func TestParseNoVerb(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("The quick brown fox")))
	root := slices.Index(tr.Heads, Root)
	if root == -1 {
		t.Fatalf("no root:\n%s", tr)
	}
	if tr.Tokens[root].Text != "fox" {
		t.Errorf("root = %q, want fox", tr.Tokens[root].Text)
	}
}

func TestParseEmpty(t *testing.T) {
	tr := Parse(nil)
	if len(tr.Tokens) != 0 || len(tr.Heads) != 0 || len(tr.Labels) != 0 {
		t.Errorf("empty parse wrong: %+v", tr)
	}
}

func TestSingleRoot(t *testing.T) {
	sentences := []string{
		"Steve Jobs founded Apple",
		"Apple was founded by Steve Jobs in 1976",
		"The company is a leader",
		"He quickly moved to California and married Laurene",
		"word",
		"!",
	}
	for _, s := range sentences {
		tr := Parse(text.Tag(text.Tokenize(s)))
		roots := 0
		for i := range tr.Heads {
			if tr.Heads[i] == Root {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("%q: %d roots\n%s", s, roots, tr)
		}
	}
}

func TestTreeIsAcyclic(t *testing.T) {
	sentences := []string{
		"Steve Jobs founded Apple in Cupertino in 1976",
		"Apple was originally founded by Steve Jobs and Steve Wozniak",
		"The famous company released a new phone in January",
	}
	for _, s := range sentences {
		tr := Parse(text.Tag(text.Tokenize(s)))
		for i := range tr.Heads {
			seen := map[int]bool{}
			j := i
			for j != Root {
				if seen[j] {
					t.Fatalf("%q: cycle at token %d\n%s", s, i, tr)
				}
				seen[j] = true
				j = tr.Heads[j]
			}
		}
	}
}

func TestPath(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Steve Jobs founded Apple")))
	subj := find(tr, "Jobs")
	obj := find(tr, "Apple")
	p := tr.Path(subj, obj)
	if !strings.Contains(p, "nsubj") || !strings.Contains(p, "dobj") || !strings.Contains(p, "found") {
		t.Errorf("Path = %q", p)
	}
	// Path to self is just the lemma.
	if got := tr.Path(subj, subj); got != "jobs" {
		t.Errorf("self path = %q", got)
	}
	if got := tr.Path(-1, obj); got != "" {
		t.Errorf("invalid path = %q", got)
	}
}

func TestPathPassive(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Apple was founded by Steve Jobs")))
	a := find(tr, "Apple")
	j := find(tr, "Jobs")
	p := tr.Path(a, j)
	if !strings.Contains(p, "nsubjpass") || !strings.Contains(p, "pobj") {
		t.Errorf("passive path = %q\n%s", p, tr)
	}
}

func TestChildrenAndChildWithLabel(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Steve Jobs founded Apple")))
	v := find(tr, "founded")
	kids := 0
	for _, h := range tr.Heads {
		if h == v {
			kids++
		}
	}
	if kids != 2 {
		t.Errorf("founded has %d children, want 2\n%s", kids, tr)
	}
	if got := tr.ChildWithLabel(v, LabelNsubj); got == -1 || tr.Tokens[got].Text != "Jobs" {
		t.Errorf("ChildWithLabel(nsubj) = %d", got)
	}
	if got := tr.ChildWithLabel(v, LabelDobj); got == -1 || tr.Tokens[got].Text != "Apple" {
		t.Errorf("ChildWithLabel(dobj) = %d", got)
	}
	if got := tr.ChildWithLabel(v, "nosuch"); got != -1 {
		t.Errorf("ChildWithLabel(nosuch) = %d", got)
	}
}

func TestArcs(t *testing.T) {
	tr := Parse(text.Tag(text.Tokenize("Jobs founded Apple")))
	// One arc per token: a head (Root or a token index) and a label.
	if len(tr.Heads) != 3 || len(tr.Labels) != 3 {
		t.Fatalf("heads %v labels %v for 3 tokens", tr.Heads, tr.Labels)
	}
	for dep, head := range tr.Heads {
		if head != Root && (head < 0 || head >= 3 || head == dep) || tr.Labels[dep] == "" {
			t.Errorf("bad arc %d <-%s- %d", dep, tr.Labels[dep], head)
		}
	}
}

func TestParseRobustnessOnArbitraryText(t *testing.T) {
	// The parser must never panic or produce out-of-range heads on
	// arbitrary input.
	inputs := []string{
		"the of and in by",
		"!!! ??? ...",
		"founded founded founded",
		"a b c d e f g h i j k l m n o p",
		"Über die Brücke 42 , 7 %",
	}
	for _, s := range inputs {
		tr := Parse(text.Tag(text.Tokenize(s)))
		for i, h := range tr.Heads {
			if h != Root && (h < 0 || h >= len(tr.Heads)) {
				t.Errorf("%q: head out of range at %d", s, i)
			}
		}
	}
}

func TestParseTaggedDirectly(t *testing.T) {
	tagged := text.Tag(text.Tokenize("Jobs founded Apple"))
	tr := Parse(tagged)
	if slices.Index(tr.Heads, Root) == -1 {
		t.Error("no root")
	}
}
