package taxonomy

import (
	"sort"
	"strings"
	"testing"

	"kbharvest/internal/eval"
	"kbharvest/internal/synth"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		cat   string
		kind  CategoryKind
		class string
	}{
		{"Physicists", Conceptual, "physicist"},
		{"Companies", Conceptual, "company"},
		{"Cities in Fooland", Conceptual, "city"},
		{"Smartphones", Conceptual, "smartphone"},
		{"American computer pioneers", Conceptual, "pioneer"},
		{"Science", Thematic, ""},
		{"History of Fooland", Thematic, ""},
		{"Music", Thematic, ""},
		{"Articles with unsourced statements", Administrative, ""},
		{"Articles needing cleanup", Administrative, ""},
		{"Pages with broken file links", Administrative, ""},
		{"Stubs", Administrative, ""},
	}
	for _, c := range cases {
		j := Classify(c.cat)
		if j.Kind != c.kind {
			t.Errorf("Classify(%q).Kind = %v, want %v", c.cat, j.Kind, c.kind)
		}
		if c.class != "" && j.ClassNoun != c.class {
			t.Errorf("Classify(%q).ClassNoun = %q, want %q", c.cat, j.ClassNoun, c.class)
		}
	}
}

func TestCategoryKindString(t *testing.T) {
	if Conceptual.String() != "conceptual" || Thematic.String() != "thematic" || Administrative.String() != "administrative" {
		t.Error("kind strings wrong")
	}
}

func TestSingular(t *testing.T) {
	cases := map[string]string{
		"cities": "city", "physicists": "physicist", "boxes": "box",
		"churches": "church", "bosses": "boss", "companies": "company",
		"universities": "university", "awards": "award",
	}
	for in, want := range cases {
		if got := Singular(in); got != want {
			t.Errorf("Singular(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHarvestTypes(t *testing.T) {
	pages := []Page{
		{Subject: "kb:A", Categories: []string{"Physicists", "Science", "Stubs"}},
		{Subject: "kb:B", Categories: []string{"Companies"}},
	}
	facts := HarvestTypes(pages)
	if len(facts) != 2 {
		t.Fatalf("facts = %+v", facts)
	}
	if facts[0].Entity != "kb:A" || facts[0].ClassNoun != "physicist" {
		t.Errorf("first = %+v", facts[0])
	}
}

func TestInduceSubclasses(t *testing.T) {
	parents := map[string][]string{
		"Physicists": {"Scientists", "Science"},
		"Scientists": {"People"},
		"Companies":  {"Organizations", "Commerce"},
		"Science":    {"Topics"},
	}
	edges := InduceSubclasses(parents)
	got := map[string]bool{}
	for _, e := range edges {
		got[e.Sub+"<"+e.Super] = true
	}
	for _, want := range []string{"physicist<scientist", "scientist<person", "company<organization"} {
		if !got[want] {
			t.Errorf("missing edge %s in %v", want, edges)
		}
	}
	if got["physicist<science"] {
		t.Error("thematic parent leaked into taxonomy")
	}
}

// End-to-end against the synthetic corpus: type harvesting precision/recall
// vs. the generating ground truth must be high (this is experiment E1's
// invariant).
func TestHarvestTypesOnSyntheticCorpus(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 60, Companies: 15, Cities: 10, Countries: 3,
		Universities: 6, Products: 12, Prizes: 4,
	}, 21)
	corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
	var pages []Page
	for _, a := range corpus.Articles {
		pages = append(pages, Page{Subject: a.Subject, Categories: a.Categories})
	}
	facts := HarvestTypes(pages)
	pred := make(map[string]bool)
	for _, f := range facts {
		pred[f.Entity+"|"+f.ClassNoun] = true
	}
	gold := make(map[string]bool)
	for _, e := range w.Entities {
		gold[e.ID+"|"+synth.ClassNoun(e.Class)] = true
	}
	// Predictions include valid superclass assignments (e.g. scientist
	// for a physicist); count those as correct by extending gold with
	// superclasses.
	for _, e := range w.Entities {
		for _, super := range w.Truth.Superclasses(e.Class) {
			if n := synth.ClassNoun(super); n != "" {
				gold[e.ID+"|"+n] = true
			}
		}
	}
	score := eval.SetPRF(pred, gold)
	if score.Precision < 0.95 {
		t.Errorf("type harvesting precision = %v", score)
	}
	// Every entity must get at least its most specific class.
	for _, e := range w.Entities {
		if !pred[e.ID+"|"+synth.ClassNoun(e.Class)] {
			t.Fatalf("entity %s missing its class", e.ID)
		}
	}
}

func TestInduceSubclassesOnSyntheticCorpus(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 30, Companies: 10, Cities: 8, Countries: 3,
		Universities: 4, Products: 8, Prizes: 3,
	}, 22)
	corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
	edges := InduceSubclasses(corpus.CategoryParents)
	got := make(map[string]bool)
	for _, e := range edges {
		got[e.Sub+"<"+e.Super] = true
	}
	// Gold edges projected to class nouns.
	for _, pair := range w.TaxonomyPairs() {
		sub, super := synth.ClassNoun(pair[0]), synth.ClassNoun(pair[1])
		if sub == "" || super == "" {
			continue
		}
		// Only check pairs whose categories exist in the corpus graph.
		if _, ok := corpus.CategoryParents[synth.CategoryForClass(pair[0])]; !ok {
			continue
		}
		if !got[sub+"<"+super] {
			t.Errorf("missing induced edge %s < %s (have %v)", sub, super, edges)
		}
	}
}

func TestExpand(t *testing.T) {
	lists := []ItemList{
		{Source: "1", Items: []string{"A", "B", "C", "D"}},
		{Source: "2", Items: []string{"A", "C", "E"}},
		{Source: "3", Items: []string{"X", "Y", "Z"}}, // unrelated
		{Source: "4", Items: []string{"B", "C", "E", "F"}},
	}
	cands := Expand([]string{"A", "B"}, lists, 1)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	scores := map[string]float64{}
	for _, c := range cands {
		scores[c.Item] = c.Score
	}
	if scores["C"] <= scores["F"] {
		t.Errorf("C should outrank F: %v", cands)
	}
	if _, ok := scores["X"]; ok {
		t.Error("unrelated list member leaked")
	}
	if _, ok := scores["A"]; ok {
		t.Error("seeds must not be returned")
	}
}

func TestExpandMinSeedHits(t *testing.T) {
	lists := []ItemList{
		{Source: "1", Items: []string{"A", "C"}},
		{Source: "2", Items: []string{"A", "B", "D"}},
	}
	cands := Expand([]string{"A", "B"}, lists, 2)
	for _, c := range cands {
		if c.Item == "C" {
			t.Error("list with one seed hit should be ignored at minSeedHits=2")
		}
	}
}

func TestExpandOnSyntheticLists(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 60, Companies: 15, Cities: 10, Countries: 3,
		Universities: 6, Products: 12, Prizes: 4,
	}, 23)
	pages := synth.BuildWebPages(w, 8, 31)
	var lists []ItemList
	for _, p := range pages {
		if len(p.Items) > 0 {
			lists = append(lists, ItemList{Source: p.URL, Items: p.Items})
		}
	}
	// Seeds: three physicists; gold: all people of that class.
	var seeds []string
	gold := map[string]bool{}
	for _, p := range w.People {
		if p.Class == synth.ClassPhysicist {
			if len(seeds) < 3 {
				seeds = append(seeds, p.Name)
			}
			gold[p.Name] = true
		}
	}
	if len(seeds) < 3 {
		t.Skip("not enough physicists in this world")
	}
	cands := Expand(seeds, lists, 1)
	if len(cands) == 0 {
		t.Fatal("expansion found nothing")
	}
	ranked := make([]string, len(cands))
	for i, c := range cands {
		ranked[i] = c.Item
	}
	p5 := eval.PrecisionAtK(ranked, gold, 5)
	if p5 < 0.8 {
		t.Errorf("precision@5 = %v, ranked head = %v", p5, ranked[:min(5, len(ranked))])
	}
}

func TestExtractHearst(t *testing.T) {
	body := "Physicists such as Marie Curie, Albert Einstein, and Niels Bohr shaped modern science. " +
		"Many companies, including Acme Systems and Globex Corporation, attracted attention. " +
		"Smartphones like Nova 3 sold well."
	facts := ExtractHearst(body)
	byClass := map[string][]string{}
	for _, f := range facts {
		byClass[f.ClassNoun] = append(byClass[f.ClassNoun], f.Instance)
	}
	sort.Strings(byClass["physicist"])
	if len(byClass["physicist"]) != 3 || byClass["physicist"][0] != "Albert Einstein" {
		t.Errorf("physicists = %v", byClass["physicist"])
	}
	if len(byClass["company"]) != 2 {
		t.Errorf("companies = %v", byClass["company"])
	}
	if len(byClass["smartphone"]) != 1 || byClass["smartphone"][0] != "Nova 3" {
		t.Errorf("smartphones = %v", byClass["smartphone"])
	}
}

func TestExtractHearstNoFalsePositives(t *testing.T) {
	body := "He walks like a duck. She said nothing such as that was true."
	facts := ExtractHearst(body)
	for _, f := range facts {
		if strings.ToLower(f.Instance) == f.Instance {
			t.Errorf("lowercase instance extracted: %+v", f)
		}
	}
}

func TestExtractHearstOnSyntheticPages(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 40, Companies: 10, Cities: 8, Countries: 3,
		Universities: 4, Products: 10, Prizes: 3,
	}, 24)
	pages := synth.BuildWebPages(w, 6, 33)
	correct, total := 0, 0
	for _, p := range pages {
		if len(p.Items) > 0 {
			continue // only prose pages
		}
		for _, f := range ExtractHearst(p.Text) {
			total++
			e := w.EntityByName(f.Instance)
			if e == nil {
				continue
			}
			if synth.ClassNoun(e.Class) == f.ClassNoun || hasSuper(w, e.Class, f.ClassNoun) {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no Hearst facts extracted from synthetic pages")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("Hearst accuracy = %.3f (%d/%d)", acc, correct, total)
	}
}

func hasSuper(w *synth.World, class, noun string) bool {
	for _, super := range w.Truth.Superclasses(class) {
		if synth.ClassNoun(super) == noun {
			return true
		}
	}
	return false
}
