package core

import (
	"bytes"
	"fmt"
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
		if tr.S.Kind != rdf.Blank {
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

	if len(parsed) != len(reified) {
		t.Fatalf("%d triples parsed back, %d written", len(parsed), len(reified))
	}
	for i := range parsed {
		if !parsed[i].Equal(reified[i]) {
			t.Errorf("triple %d: parsed %v, wrote %v", i, parsed[i], reified[i])
		}
	}
	// Each fact's description, read back, names the fact and its metadata.
	desc := map[string]map[string]rdf.Term{}
	for _, tr := range parsed {
		if desc[tr.S.Value] == nil {
			desc[tr.S.Value] = map[string]rdf.Term{}
		}
		desc[tr.S.Value][tr.P.Value] = tr.O
	}
	if len(desc) != 2 {
		t.Fatalf("%d fact nodes, want 2: %v", len(desc), desc)
	}
	f1 := desc[fmt.Sprintf("f%d", id1)]
	if f1[ReifySubject].Value != "kb:a" || f1[ReifyObject].Value != "kb:x" || f1[ReifyConfidence].Value != "0.7" ||
		f1[ReifySource].Value != "s1" || f1[ReifyBegin].Value != "10" || f1[ReifyEnd].Value != "20" {
		t.Errorf("fact 1 after round trip: %v", f1)
	}
	// Language-tagged literal object preserved.
	f2 := desc[fmt.Sprintf("f%d", id2)]
	if !f2[ReifyObject].Equal(rdf.NewLangLiteral("A", "en")) || f2[ReifyConfidence].Value != "0.9" {
		t.Errorf("fact 2 after round trip: %v", f2)
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
