package kbharvest

import (
	"bytes"
	"testing"

	"kbharvest/internal/ned"
)

func smallBuild(t *testing.T, seed int64) *BuildResult {
	t.Helper()
	opt := DefaultBuildOptions()
	opt.World = WorldConfig{
		People: 50, Companies: 12, Cities: 8, Countries: 3,
		Universities: 5, Products: 10, Prizes: 4,
	}
	opt.Seed = seed
	res, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeBuildAndQuery(t *testing.T) {
	res := smallBuild(t, 1001)
	if res.KB.Len() == 0 {
		t.Fatal("empty KB")
	}
	rows, err := res.KB.QueryStrings([]string{"?p kb:founded ?c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("no founders found")
	}
	// Taxonomy available through the facade type.
	if len(res.KB.Instances("kb:person")) == 0 {
		t.Error("no persons in harvested taxonomy")
	}
}

func TestFacadeSaveLoadRoundTrip(t *testing.T) {
	res := smallBuild(t, 1002)
	var buf bytes.Buffer
	if err := SaveKB(res.KB, &buf); err != nil {
		t.Fatal(err)
	}
	kb2, err := LoadKB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if kb2.Len() != res.KB.Len() {
		t.Errorf("round trip: %d != %d facts", kb2.Len(), res.KB.Len())
	}
	// A known fact survives with metadata.
	for _, tr := range res.KB.All()[:10] {
		if !kb2.Has(tr) {
			t.Errorf("fact lost: %v", tr)
		}
	}
}

func TestFacadeLinker(t *testing.T) {
	res := smallBuild(t, 1003)
	linker := res.Linker()
	p := res.World.People[0]
	out := linker.Disambiguate([]Mention{{Surface: p.Name}}, ned.PriorOnly)
	if len(out) != 1 || out[0].Entity != p.ID {
		t.Errorf("facade linker result = %+v", out)
	}
}

func TestFacadeHelpers(t *testing.T) {
	kb := NewKB()
	kb.Add(T("a", "p", "b"))
	if !kb.Has(T("a", "p", "b")) {
		t.Error("T/Has through facade failed")
	}
	if NewIRI("x").Value != "x" {
		t.Error("NewIRI wrong")
	}
}

func TestFacadeLoadError(t *testing.T) {
	if _, err := LoadKB(bytes.NewReader([]byte("garbage line\n"))); err == nil {
		t.Error("LoadKB should propagate load errors")
	}
}
