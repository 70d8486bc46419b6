package core

// The fact-log layer: the append-only list of encoded triples, the
// exact-match (dedup) index, and per-fact metadata. FactIDs are dense log
// positions assigned in insertion order, and a fact once logged stays for
// the life of the store (which is what makes batch and sequential
// insertion of the same triples observationally identical). The log has
// no lock of its own: the store's lock guards it. Like the dictionary's
// term list, triples only grows, so a copy of the slice taken under the
// lock stays readable after it is released.

type factLog struct {
	triples []encTriple // FactID -> triple
	index   map[encTriple]FactID
	meta    map[FactID]*FactInfo // never mutated in place: setInfo replaces
}

func newFactLog() factLog {
	return factLog{
		index: make(map[encTriple]FactID),
		meta:  make(map[FactID]*FactInfo),
	}
}

// add appends one triple, reporting its FactID and whether it is new (a
// duplicate reuses its existing ID).
func (l *factLog) add(et encTriple) (FactID, bool) {
	if id, ok := l.index[et]; ok {
		return id, false
	}
	id := FactID(len(l.triples))
	l.triples = append(l.triples, et)
	l.index[et] = id
	return id, true
}

// factOf resolves a triple to its FactID.
func (l *factLog) factOf(et encTriple) (FactID, bool) {
	id, ok := l.index[et]
	if !ok {
		return NoFact, false
	}
	return id, true
}

// get returns the triple of a fact.
func (l *factLog) get(id FactID) (encTriple, bool) {
	if int(id) >= len(l.triples) {
		return encTriple{}, false
	}
	return l.triples[id], true
}

func (l *factLog) len() int { return len(l.triples) }

// setInfo replaces a fact's metadata with a copy of info.
func (l *factLog) setInfo(id FactID, info FactInfo) bool {
	if int(id) >= len(l.triples) {
		return false
	}
	if info.Time == (Interval{}) {
		info.Time = Always
	}
	l.meta[id] = &info
	return true
}

// info reads a fact's metadata, defaulting to confidence 1 / Always.
func (l *factLog) info(id FactID) (FactInfo, bool) {
	if int(id) >= len(l.triples) {
		return FactInfo{}, false
	}
	if m, ok := l.meta[id]; ok {
		return *m, true
	}
	return FactInfo{Confidence: 1, Time: Always}, true
}
