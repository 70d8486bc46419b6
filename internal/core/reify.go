package core

import (
	"fmt"

	"kbharvest/internal/rdf"
)

// Reification: exporting per-fact metadata as triples, in the style of
// YAGO2's SPOTL(X) representation — every fact gets an identifier node,
// and confidence / provenance / temporal scope become statements about
// that node. This makes a kbharvest snapshot interoperable with plain
// triple tooling that knows nothing of our metadata side-channel, and is
// how "several KBs are interlinked … forming the backbone of the Web of
// Linked Data" (§1) exchange meta-knowledge.

// Vocabulary used by reified fact descriptions.
const (
	ReifySubject    = "rdf:subject"
	ReifyPredicate  = "rdf:predicate"
	ReifyObject     = "rdf:object"
	ReifyConfidence = "kb:hasConfidence"
	ReifySource     = "kb:wasExtractedFrom"
	ReifyBegin      = "kb:validSince"
	ReifyEnd        = "kb:validUntil"
)

// ReifyFact renders one fact and its metadata as triples rooted at a
// blank node "_:f<ID>". Unbounded interval endpoints are omitted.
func (st *Store) ReifyFact(id FactID) ([]rdf.Triple, error) {
	t, ok := st.Fact(id)
	if !ok {
		return nil, fmt.Errorf("core: reify: no fact %d", id)
	}
	info, _ := st.Info(id)
	node := rdf.NewBlank(fmt.Sprintf("f%d", id))
	out := []rdf.Triple{
		{S: node, P: rdf.NewIRI(ReifySubject), O: t.S},
		{S: node, P: rdf.NewIRI(ReifyPredicate), O: t.P},
		{S: node, P: rdf.NewIRI(ReifyObject), O: t.O},
		{S: node, P: rdf.NewIRI(ReifyConfidence),
			O: rdf.NewTypedLiteral(fmt.Sprintf("%g", info.Confidence), rdf.XSDDouble)},
	}
	if info.Source != "" {
		out = append(out, rdf.Triple{S: node, P: rdf.NewIRI(ReifySource), O: rdf.NewLiteral(info.Source)})
	}
	if info.Time.Begin != MinDay {
		out = append(out, rdf.Triple{S: node, P: rdf.NewIRI(ReifyBegin),
			O: rdf.NewTypedLiteral(fmt.Sprintf("%d", info.Time.Begin), rdf.XSDInteger)})
	}
	if info.Time.End != MaxDay {
		out = append(out, rdf.Triple{S: node, P: rdf.NewIRI(ReifyEnd),
			O: rdf.NewTypedLiteral(fmt.Sprintf("%d", info.Time.End), rdf.XSDInteger)})
	}
	return out, nil
}

// ReifyAll renders every fact (optionally only those matching the
// pattern) as reified triples.
func (st *Store) ReifyAll(pattern rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	st.MatchFunc(pattern, func(id FactID, _ rdf.Triple) bool {
		ts, err := st.ReifyFact(id)
		if err == nil {
			out = append(out, ts...)
		}
		return true
	})
	return out
}

// LoadReified reconstructs facts-with-metadata from reified triples (the
// inverse of ReifyAll): triples are grouped by their blank-node root and
// asserted into the store. Returns the number of facts loaded; groups
// missing any of subject/predicate/object are skipped and counted in
// incomplete.
func (st *Store) LoadReified(triples []rdf.Triple) (loaded, incomplete int) {
	type desc struct {
		s, p, o             rdf.Term
		haveS, haveP, haveO bool
		info                FactInfo
	}
	groups := map[string]*desc{}
	order := []string{}
	get := func(node string) *desc {
		d, ok := groups[node]
		if !ok {
			d = &desc{info: FactInfo{Confidence: 1, Time: Always}}
			groups[node] = d
			order = append(order, node)
		}
		return d
	}
	for _, t := range triples {
		if !t.S.IsBlank() {
			continue
		}
		d := get(t.S.Value)
		switch t.P.Value {
		case ReifySubject:
			d.s, d.haveS = t.O, true
		case ReifyPredicate:
			d.p, d.haveP = t.O, true
		case ReifyObject:
			d.o, d.haveO = t.O, true
		case ReifyConfidence:
			fmt.Sscanf(t.O.Value, "%g", &d.info.Confidence)
		case ReifySource:
			d.info.Source = t.O.Value
		case ReifyBegin:
			fmt.Sscanf(t.O.Value, "%d", &d.info.Time.Begin)
		case ReifyEnd:
			fmt.Sscanf(t.O.Value, "%d", &d.info.Time.End)
		}
	}
	for _, node := range order {
		d := groups[node]
		if !d.haveS || !d.haveP || !d.haveO {
			incomplete++
			continue
		}
		id := st.Add(rdf.Triple{S: d.s, P: d.p, O: d.o})
		st.SetInfo(id, d.info)
		loaded++
	}
	return loaded, incomplete
}
