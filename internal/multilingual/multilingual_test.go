package multilingual

import (
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/synth"
)

func TestLabelsRoundTrip(t *testing.T) {
	st := core.NewStore()
	st.Add(rdf.Triple{S: rdf.NewIRI("kb:Alice"), P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewLangLiteral("Alice Foo", "en")})
	st.Add(rdf.Triple{S: rdf.NewIRI("kb:Alice"), P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewLangLiteral("Alize Fou", "fr")})
	st.Add(rdf.TL("kb:Alice", rdf.RDFSLabel, "untagged")) // no lang -> ignored
	labels := Labels(st, "kb:Alice")
	if len(labels) != 2 || labels["en"] != "Alice Foo" || labels["fr"] != "Alize Fou" {
		t.Errorf("labels = %v", labels)
	}
}

func TestNameSimilarity(t *testing.T) {
	if NameSimilarity("Katrin", "Catrin") < 0.99 {
		t.Error("k/c fold should make these equal")
	}
	if NameSimilarity("Thomas", "Tomas") < 0.99 {
		t.Error("th/t fold should make these equal")
	}
	if s := NameSimilarity("Alice", "Bob"); s > 0.5 {
		t.Errorf("unrelated names too similar: %v", s)
	}
	if NameSimilarity("same", "same") != 1 {
		t.Error("identical names should score 1")
	}
	if s := NameSimilarity("", ""); s != 1 {
		t.Errorf("empty names = %v", s)
	}
}

func TestNameSimilaritySymmetric(t *testing.T) {
	pairs := [][2]string{
		{"Katrin", "Catrin"}, {"Alpha", "Beta"}, {"Quest", "Kest"},
	}
	for _, p := range pairs {
		if NameSimilarity(p[0], p[1]) != NameSimilarity(p[1], p[0]) {
			t.Errorf("asymmetric similarity for %v", p)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "abc", 3},
		{"kitten", "sitting", 3}, {"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAlignOneToOne(t *testing.T) {
	src := []Named{{"en:1", "Katrin Foo"}, {"en:2", "Thomas Bar"}}
	dst := []Named{{"de:1", "Catrin Foo"}, {"de:2", "Tomas Bar"}, {"de:3", "Unrelated Person"}}
	aligns := Align(src, dst, 0.8)
	if len(aligns) != 2 {
		t.Fatalf("alignments = %+v", aligns)
	}
	got := map[string]string{}
	for _, a := range aligns {
		got[a.Src] = a.Dst
	}
	if got["en:1"] != "de:1" || got["en:2"] != "de:2" {
		t.Errorf("alignments = %v", got)
	}
}

func TestAlignRespectsThreshold(t *testing.T) {
	src := []Named{{"a", "Alice"}}
	dst := []Named{{"b", "Zorblatt"}}
	if aligns := Align(src, dst, 0.8); len(aligns) != 0 {
		t.Errorf("low-similarity pair aligned: %+v", aligns)
	}
}

// E11's invariant: aligning the English and German editions of the
// synthetic world by name recovers the identity mapping.
func TestAlignSyntheticEditions(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 60, Companies: 15, Cities: 10, Countries: 3,
		Universities: 6, Products: 12, Prizes: 4,
	}, 61)
	var src, dst []Named
	for _, p := range w.People {
		src = append(src, Named{ID: p.ID, Name: p.Labels["en"]})
		dst = append(dst, Named{ID: p.ID, Name: p.Labels["de"]})
	}
	aligns := Align(src, dst, 0.75)
	correct := 0
	for _, a := range aligns {
		if a.Src == a.Dst {
			correct++
		}
	}
	if len(aligns) == 0 {
		t.Fatal("no alignments")
	}
	precision := float64(correct) / float64(len(aligns))
	recall := float64(correct) / float64(len(src))
	if precision < 0.9 {
		t.Errorf("alignment precision = %.3f", precision)
	}
	if recall < 0.8 {
		t.Errorf("alignment recall = %.3f", recall)
	}
}
