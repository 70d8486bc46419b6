package core

import "sync"

// The fact-log layer: the append-only list of encoded triples, the
// exact-match (dedup) index, and per-fact metadata. FactIDs are dense log
// positions, and a fact once logged stays for the life of the store. The
// log's critical sections are short — one map probe and one append — and
// the batch path amortizes the lock over a whole batch, assigning FactIDs
// in input order (which is what makes batch and sequential insertion of
// the same triples observationally identical).

type factLog struct {
	mu      sync.RWMutex
	triples []encTriple // FactID -> triple
	index   map[encTriple]FactID
	meta    map[FactID]*FactInfo
}

func newFactLog() *factLog {
	return &factLog{
		index: make(map[encTriple]FactID),
		meta:  make(map[FactID]*FactInfo),
	}
}

// add appends one triple, reporting its FactID and whether it is new (a
// duplicate reuses its existing ID).
func (l *factLog) add(et encTriple) (FactID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addLocked(et)
}

func (l *factLog) addLocked(et encTriple) (FactID, bool) {
	if id, ok := l.index[et]; ok {
		return id, false
	}
	id := FactID(len(l.triples))
	l.triples = append(l.triples, et)
	l.index[et] = id
	return id, true
}

// addBatch appends every triple under one lock acquisition, filling ids
// and fresh (parallel slices). infos, when non-nil, carries per-fact
// metadata applied in the same critical section; a nil entry leaves the
// fact's metadata untouched.
func (l *factLog) addBatch(ets []encTriple, ids []FactID, fresh []bool, infos []*FactInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, et := range ets {
		id, isNew := l.addLocked(et)
		ids[i] = id
		if fresh != nil {
			fresh[i] = isNew
		}
		if infos != nil && infos[i] != nil {
			cp := *infos[i]
			if cp.Time == (Interval{}) {
				cp.Time = Always
			}
			l.meta[id] = &cp
		}
	}
}

// factOf resolves a triple to its FactID.
func (l *factLog) factOf(et encTriple) (FactID, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	id, ok := l.index[et]
	if !ok {
		return NoFact, false
	}
	return id, true
}

// get returns the triple of a fact.
func (l *factLog) get(id FactID) (encTriple, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if int(id) >= len(l.triples) {
		return encTriple{}, false
	}
	return l.triples[id], true
}

// resolve fetches the triples of ids under one read lock. Every ID comes
// from a posting, and a fact is logged before it is indexed, so each one
// names a logged fact.
func (l *factLog) resolve(ids []FactID) []encTriple {
	ets := make([]encTriple, len(ids))
	l.mu.RLock()
	for i, id := range ids {
		ets[i] = l.triples[id]
	}
	l.mu.RUnlock()
	return ets
}

// scan returns every triple in insertion order, which is FactID order.
func (l *factLog) scan() []encTriple {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]encTriple(nil), l.triples...)
}

// snapshot returns every fact in insertion order together with a copy of
// its explicit metadata (nil where none was set), under one read lock —
// the consistent view Save serializes.
func (l *factLog) snapshot() ([]encTriple, []*FactInfo) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ets := append([]encTriple(nil), l.triples...)
	infos := make([]*FactInfo, len(ets))
	for id := range ets {
		if m, ok := l.meta[FactID(id)]; ok {
			cp := *m
			infos[id] = &cp
		}
	}
	return ets, infos
}

func (l *factLog) len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.triples)
}

// setInfo replaces a fact's metadata.
func (l *factLog) setInfo(id FactID, info FactInfo) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(id) >= len(l.triples) {
		return false
	}
	cp := info
	if cp.Time == (Interval{}) {
		cp.Time = Always
	}
	l.meta[id] = &cp
	return true
}

// info reads a fact's metadata, defaulting to confidence 1 / Always.
func (l *factLog) info(id FactID) (FactInfo, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if int(id) >= len(l.triples) {
		return FactInfo{}, false
	}
	if m, ok := l.meta[id]; ok {
		return *m, true
	}
	return FactInfo{Confidence: 1, Time: Always}, true
}
