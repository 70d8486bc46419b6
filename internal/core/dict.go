package core

import (
	"strings"

	"kbharvest/internal/rdf"
)

// The term dictionary layer: interning of rdf.Term values to dense IDs
// 1…n, assigned in first-interned order, the scheme RDF-3X's dictionary
// uses. ID 0 is never allocated and stays reserved as "no term" /
// wildcard. The dictionary has no lock of its own: the store's lock
// guards it.

// termList maps an ID to its term; index 0 holds the zero term. It only
// ever grows, and an ID's term never changes, so a copy of the slice
// taken under the store's lock may be read after the lock is released:
// appends write past its length or into a new array, never into it.
type termList []rdf.Term

// term resolves an ID back to its term. Unknown IDs (including 0) yield
// the zero term.
func (l termList) term(id ID) rdf.Term {
	if int(id) >= len(l) {
		return rdf.Term{}
	}
	return l[id]
}

// triple decodes an encoded triple.
func (l termList) triple(et encTriple) rdf.Triple {
	return rdf.Triple{S: l.term(et.s), P: l.term(et.p), O: l.term(et.o)}
}

type termDict struct {
	ids   map[rdf.Term]ID
	terms termList
}

func newTermDict() termDict {
	return termDict{ids: make(map[rdf.Term]ID), terms: termList{{}}}
}

// intern returns the ID for a term, allocating the next one if needed. A
// new term is stored as a copy of its strings, so a term cut from a larger
// string (a snapshot line) does not keep that string alive.
func (d *termDict) intern(t rdf.Term) ID {
	if id, ok := d.ids[t]; ok {
		return id
	}
	t = rdf.Term{Kind: t.Kind, Value: strings.Clone(t.Value), Lang: strings.Clone(t.Lang), Datatype: strings.Clone(t.Datatype)}
	id := ID(len(d.terms))
	d.terms = append(d.terms, t)
	d.ids[t] = id
	return id
}

// lookup returns the ID of a previously interned term.
func (d *termDict) lookup(t rdf.Term) (ID, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// count returns the number of interned terms.
func (d *termDict) count() int { return len(d.terms) - 1 }
