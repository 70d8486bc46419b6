package commonsense

import (
	"strings"
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/synth"
)

func TestExtractProperties(t *testing.T) {
	body := "Apples can be red, green, juicy, and sweet. Clarinets are usually cylindrical."
	facts := ExtractProperties(body)
	props := map[string][]string{}
	for _, f := range facts {
		props[f.Concept] = append(props[f.Concept], f.Property)
	}
	if len(props["apple"]) != 4 {
		t.Errorf("apple properties = %v", props["apple"])
	}
	if len(props["clarinet"]) != 1 || props["clarinet"][0] != "cylindrical" {
		t.Errorf("clarinet properties = %v", props["clarinet"])
	}
}

func TestExtractPropertiesStopsAtNonAdjective(t *testing.T) {
	body := "Apples can be red in the northern markets."
	facts := ExtractProperties(body)
	for _, f := range facts {
		if f.Property == "in" || f.Property == "the" {
			t.Errorf("stopword extracted as property: %+v", f)
		}
	}
}

func TestExtractPropertiesIgnoresProperNouns(t *testing.T) {
	body := "He said Steve Jobs can be demanding."
	// Mid-sentence capitalized words are proper nouns, not concepts.
	for _, f := range ExtractProperties(body) {
		if f.Concept == "job" {
			t.Errorf("proper noun treated as concept: %+v", f)
		}
	}
}

func TestExtractParts(t *testing.T) {
	body := "The mouthpiece of a clarinet is delicate. He admired the keel of a ship."
	facts := ExtractParts(body)
	want := map[PartFact]bool{
		{Part: "mouthpiece", Whole: "clarinet"}: true,
		{Part: "keel", Whole: "ship"}:           true,
	}
	if len(facts) != 2 {
		t.Fatalf("parts = %+v", facts)
	}
	for _, f := range facts {
		if !want[f] {
			t.Errorf("unexpected part fact %+v", f)
		}
	}
}

func buildRuleStore() *core.Store {
	st := core.NewStore()
	// Symmetric relation: marriedTo.
	couples := [][2]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"}, {"i", "j"}, {"k", "l"}}
	for _, c := range couples {
		st.Add(rdf.T(c[0], "kb:marriedTo", c[1]))
		st.Add(rdf.T(c[1], "kb:marriedTo", c[0]))
	}
	// founded implies ceoOf for most founders.
	for i, c := range couples {
		comp := "comp" + string(rune('0'+i))
		st.Add(rdf.T(c[0], "kb:founded", comp))
		if i < 5 {
			st.Add(rdf.T(c[0], "kb:ceoOf", comp))
		}
	}
	// An unrelated relation to add noise.
	st.Add(rdf.T("a", "kb:likes", "b"))
	return st
}

func TestMineSymmetryRule(t *testing.T) {
	st := buildRuleStore()
	rules := MineRules(st, MineConfig{MinSupport: 4, MinHeadCoverage: 0.1, MinPCAConfidence: 0.5})
	found := false
	for _, r := range rules {
		if r.Kind == "inv" && r.Body[0] == "kb:marriedTo" && r.Head == "kb:marriedTo" {
			found = true
			if r.PCAConfidence < 0.99 {
				t.Errorf("symmetry rule confidence = %v", r.PCAConfidence)
			}
		}
	}
	if !found {
		t.Errorf("symmetry rule not mined; rules = %v", rules)
	}
}

func TestMineImplicationRule(t *testing.T) {
	st := buildRuleStore()
	rules := MineRules(st, MineConfig{MinSupport: 4, MinHeadCoverage: 0.1, MinPCAConfidence: 0.5})
	found := false
	for _, r := range rules {
		if r.Kind == "impl" && r.Body[0] == "kb:founded" && r.Head == "kb:ceoOf" {
			found = true
			if r.Support != 5 {
				t.Errorf("support = %d, want 5", r.Support)
			}
		}
	}
	if !found {
		t.Errorf("founded=>ceoOf not mined; rules = %v", rules)
	}
}

func TestMineChainRule(t *testing.T) {
	st := core.NewStore()
	// worksAt(x,z) & locatedIn(z,y) => worksIn(x,y) — materialize the
	// head for most pairs.
	for i := 0; i < 8; i++ {
		p := "p" + string(rune('0'+i))
		c := "c" + string(rune('0'+i%4))
		city := "city" + string(rune('0'+i%4))
		st.Add(rdf.T(p, "kb:worksAt", c))
		st.Add(rdf.T(c, "kb:locatedIn", city))
		if i != 7 {
			st.Add(rdf.T(p, "kb:worksIn", city))
		}
	}
	rules := MineRules(st, MineConfig{MinSupport: 4, MinHeadCoverage: 0.1, MinPCAConfidence: 0.5})
	found := false
	for _, r := range rules {
		if r.Kind == "chain" && r.Body[0] == "kb:worksAt" && r.Body[1] == "kb:locatedIn" && r.Head == "kb:worksIn" {
			found = true
		}
	}
	if !found {
		t.Errorf("chain rule not mined; rules = %v", rules)
	}
}

func TestMineRulesOnSyntheticWorld(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 120, Companies: 30, Cities: 12, Countries: 4,
		Universities: 8, Products: 20, Prizes: 5,
	}, 62)
	rules := MineRules(w.Truth, MineConfig{MinSupport: 5, MinHeadCoverage: 0.05, MinPCAConfidence: 0.5})
	if len(rules) == 0 {
		t.Fatal("no rules mined from world")
	}
	// The generator guarantees marriedTo symmetry; the miner must find it.
	foundSym := false
	for _, r := range rules {
		if r.Kind == "inv" && r.Body[0] == synth.RelMarriedTo && r.Head == synth.RelMarriedTo {
			foundSym = true
			if r.PCAConfidence < 0.99 {
				t.Errorf("marriedTo symmetry confidence = %v", r.PCAConfidence)
			}
		}
	}
	if !foundSym {
		t.Error("marriedTo symmetry rule missing")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Kind: "chain", Body: []string{"a", "b"}, Head: "c", Support: 3, HeadCoverage: 0.5, PCAConfidence: 0.75}
	s := r.String()
	if !strings.Contains(s, "a(x,z) & b(z,y) => c(x,y)") {
		t.Errorf("String = %q", s)
	}
}
