package core

import (
	"bytes"
	"testing"

	"kbharvest/internal/rdf"
)

func TestReifyFact(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("kb:alice", "kb:worksAt", "kb:acme"))
	st.SetInfo(id, FactInfo{Confidence: 0.8, Source: "patterns", Time: Interval{100, 200}})
	ts, err := st.ReifyFact(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 7 {
		t.Fatalf("reified triples = %d: %v", len(ts), ts)
	}
	byPred := map[string]rdf.Term{}
	for _, tr := range ts {
		if !tr.S.IsBlank() {
			t.Errorf("reified triple not rooted at blank node: %v", tr)
		}
		byPred[tr.P.Value] = tr.O
	}
	if byPred[ReifySubject].Value != "kb:alice" || byPred[ReifyObject].Value != "kb:acme" {
		t.Errorf("spo wrong: %v", byPred)
	}
	if byPred[ReifyConfidence].Value != "0.8" {
		t.Errorf("confidence = %v", byPred[ReifyConfidence])
	}
	if byPred[ReifyBegin].Value != "100" || byPred[ReifyEnd].Value != "200" {
		t.Errorf("interval = %v / %v", byPred[ReifyBegin], byPred[ReifyEnd])
	}
}

func TestReifyOmitsUnboundedAndEmpty(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("a", "p", "b")) // default meta: conf 1, Always, no source
	ts, err := st.ReifyFact(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		switch tr.P.Value {
		case ReifyBegin, ReifyEnd, ReifySource:
			t.Errorf("unbounded/empty metadata should be omitted: %v", tr)
		}
	}
}

func TestReifyFactErrors(t *testing.T) {
	st := NewStore()
	if _, err := st.ReifyFact(FactID(7)); err == nil {
		t.Error("reifying a missing fact should fail")
	}
}

func TestReifyRoundTrip(t *testing.T) {
	st := NewStore()
	id1 := st.Add(rdf.T("kb:a", "kb:worksAt", "kb:x"))
	st.SetInfo(id1, FactInfo{Confidence: 0.7, Source: "s1", Time: Interval{10, 20}})
	id2 := st.Add(rdf.Triple{S: rdf.NewIRI("kb:a"), P: rdf.NewIRI("kb:label"), O: rdf.NewLangLiteral("A", "en")})
	st.SetInfo(id2, FactInfo{Confidence: 0.9, Time: Always})

	reified := st.ReifyAll(rdf.Triple{})
	// Reified form survives N-Triples serialization.
	var buf bytes.Buffer
	if err := rdf.WriteAll(&buf, reified); err != nil {
		t.Fatal(err)
	}
	parsed, err := rdf.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	st2 := NewStore()
	loaded, incomplete := st2.LoadReified(parsed)
	if loaded != 2 || incomplete != 0 {
		t.Fatalf("loaded=%d incomplete=%d", loaded, incomplete)
	}
	gotID, ok := st2.FactOf(rdf.T("kb:a", "kb:worksAt", "kb:x"))
	if !ok {
		t.Fatal("fact lost in round trip")
	}
	info, _ := st2.Info(gotID)
	if info.Confidence != 0.7 || info.Source != "s1" || info.Time != (Interval{10, 20}) {
		t.Errorf("meta after round trip: %+v", info)
	}
	// Language-tagged literal object preserved.
	if !st2.Has(rdf.Triple{S: rdf.NewIRI("kb:a"), P: rdf.NewIRI("kb:label"), O: rdf.NewLangLiteral("A", "en")}) {
		t.Error("literal fact lost")
	}
}

func TestLoadReifiedIncompleteGroups(t *testing.T) {
	st := NewStore()
	triples := []rdf.Triple{
		{S: rdf.NewBlank("f1"), P: rdf.NewIRI(ReifySubject), O: rdf.NewIRI("a")},
		{S: rdf.NewBlank("f1"), P: rdf.NewIRI(ReifyPredicate), O: rdf.NewIRI("p")},
		// missing object
		{S: rdf.NewIRI("not-blank"), P: rdf.NewIRI(ReifySubject), O: rdf.NewIRI("x")},
	}
	loaded, incomplete := st.LoadReified(triples)
	if loaded != 0 || incomplete != 1 {
		t.Errorf("loaded=%d incomplete=%d", loaded, incomplete)
	}
}

func TestReifyAllPattern(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("a", "p", "b"))
	st.Add(rdf.T("a", "q", "c"))
	ts := st.ReifyAll(rdf.Triple{P: rdf.NewIRI("p")})
	// Only the p-fact reified: 4 triples (spo + confidence).
	if len(ts) != 4 {
		t.Errorf("reified %d triples, want 4: %v", len(ts), ts)
	}
}
