// Package core implements the knowledge base itself: a dictionary-encoded
// in-memory triple store with per-fact metadata (confidence, provenance,
// temporal scope), taxonomy operations over rdf:type / rdfs:subClassOf, a
// small conjunctive (SPARQL-BGP-style) query engine, and snapshot
// persistence.
//
// This is the substrate every other module of the reproduction reads from
// and writes to — the role that the RDF stores behind DBpedia, YAGO, and
// Freebase play in the tutorial (§2). Those KBs are built by a harvest
// stage and then served read-only, and so is this store: a build writes it
// from one goroutine, one batch per stage, and a server writes it only by
// loading a snapshot. It has three layers:
//
//   - the dictionary (dict.go): terms interned to dense IDs 1…n, in
//     first-interned order.
//   - the index (index.go): three permutations (spo/pos/osp) keyed by
//     leading ID. Each leading ID keeps its exact fact count beside its
//     postings, so every match count the planner asks for is one map read.
//   - the fact log (factlog.go): the dense FactID-ordered triple log with
//     the exact-match dedup index and per-fact metadata.
//
// One sync.RWMutex on the Store guards all three. A write takes it once
// per call; a read shares it once per primitive and never holds it while
// a caller's callback runs, so a callback may write to the store.
// Concurrent writers are safe and serialise. The batch write path —
// AddBatch / AddBatchMeta — interns, logs, and indexes a whole batch under
// one acquisition, and is the preferred ingestion API; per-triple Add
// remains for incremental use. Pattern enumeration is sorted by FactID, so
// batch and sequential insertion of the same triples answer every query
// identically.
//
// The store is append-only, like the harvest-then-serve stores it stands
// in for: a fact once asserted is never retracted. Every posting therefore
// holds only facts that are in the store, the planner's estimates are
// exact counts, and a term's dictionary ID never changes — so the join
// executor (query.go) resolves a query's constants once and plans on IDs.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kbharvest/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense: the store's
// terms are numbered 1…n in the order they were first interned, and 0 is
// reserved as "no term" / wildcard.
type ID uint32

// FactID identifies one asserted triple inside a Store. FactIDs are dense,
// start at 0 and follow insertion order; a FactID names the same fact for
// the lifetime of the store.
type FactID uint32

// NoFact is returned by lookups that find no fact.
const NoFact = FactID(^uint32(0))

type encTriple struct {
	s, p, o ID
}

// Store is an in-memory, append-only knowledge base: facts are added,
// never removed. It is safe for concurrent use: point operations (Add,
// FactOf, SetInfo, ...) are atomic, and a fact is visible to every read
// path once the call that asserted it returns.
//
// The zero value is not usable; call NewStore.
type Store struct {
	// mu guards dict, log and the three permutations. The exported
	// methods take it; the unexported ones expect their caller to hold
	// it. Nothing takes it while already holding it: a nested RLock
	// deadlocks behind a waiting writer.
	mu   sync.RWMutex
	dict termDict
	log  factLog

	// Three permutations cover all bound/unbound pattern combinations:
	// spo answers (s ? ?) and (s p ?); pos answers (? p ?) and (? p o);
	// osp answers (? ? o) and (s ? o).
	spo permIndex
	pos permIndex
	osp permIndex

	// writeGen counts the writes that inserted a fact (see WriteGen).
	writeGen atomic.Uint64
}

// NewStore returns an empty knowledge base.
func NewStore() *Store {
	return &Store{
		dict: newTermDict(),
		log:  newFactLog(),
		spo:  permIndex{},
		pos:  permIndex{},
		osp:  permIndex{},
	}
}

// lookup returns the ID for a term, or 0 if the term is unknown or a
// wildcard (zero Term).
func (st *Store) lookup(t rdf.Term) (ID, bool) {
	if t.IsZero() {
		return 0, true // wildcard
	}
	return st.dict.lookup(t)
}

// encode looks up every term of t (the zero term reading as the wildcard
// 0); ok is false if some term was never interned.
func (st *Store) encode(t rdf.Triple) (et encTriple, ok bool) {
	var ok1, ok2, ok3 bool
	et.s, ok1 = st.lookup(t.S)
	et.p, ok2 = st.lookup(t.P)
	et.o, ok3 = st.lookup(t.O)
	return et, ok1 && ok2 && ok3
}

// Add asserts a triple and returns its FactID. Adding an existing triple
// is idempotent and returns the original FactID. Add panics if a term of
// t is the zero rdf.Term, which patterns read as a wildcard.
func (st *Store) Add(t rdf.Triple) FactID {
	mustHaveTerms(t)
	st.mu.Lock()
	defer st.mu.Unlock()
	et := encTriple{st.dict.intern(t.S), st.dict.intern(t.P), st.dict.intern(t.O)}
	id, isNew := st.log.add(et)
	if isNew {
		st.indexFrom(id)
	}
	return id
}

// AddBatch asserts every triple under one acquisition of the store's
// lock: all terms are interned first, then the triples are logged in
// input order (which assigns their FactIDs), then each permutation is
// filled. Duplicate triples — within the batch or against the store —
// reuse their existing FactID, exactly like repeated Add calls. Like Add,
// it panics on a zero-valued term, before it changes anything.
func (st *Store) AddBatch(ts []rdf.Triple) []FactID {
	return st.addBatch(ts, nil)
}

// AddBatchMeta is AddBatch plus per-fact metadata: infos[i] is attached to
// ts[i] as the fact is logged (overwriting existing metadata on
// duplicates, like SetInfo). infos must have the same length as ts, and no
// term may be zero-valued; AddBatchMeta panics otherwise.
func (st *Store) AddBatchMeta(ts []rdf.Triple, infos []FactInfo) []FactID {
	if len(infos) != len(ts) {
		panic(fmt.Sprintf("core: AddBatchMeta: %d triples but %d infos", len(ts), len(infos)))
	}
	ptrs := make([]*FactInfo, len(infos))
	for i := range infos {
		ptrs[i] = &infos[i]
	}
	return st.addBatch(ts, ptrs)
}

// addBatch is AddBatch with optional metadata: a nil infos, or a nil
// entry of it, leaves a fact's metadata untouched. It takes the lock.
func (st *Store) addBatch(ts []rdf.Triple, infos []*FactInfo) []FactID {
	if len(ts) == 0 {
		return nil
	}
	for _, t := range ts {
		mustHaveTerms(t)
	}
	ets := make([]encTriple, len(ts))
	ids := make([]FactID, len(ts))
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, t := range ts {
		ets[i] = encTriple{st.dict.intern(t.S), st.dict.intern(t.P), st.dict.intern(t.O)}
	}
	first := FactID(st.log.len())
	for i, et := range ets {
		ids[i], _ = st.log.add(et)
		if infos != nil && infos[i] != nil {
			st.log.setInfo(ids[i], *infos[i])
		}
	}
	st.indexFrom(first)
	return ids
}

// indexFrom files the facts logged from FactID first on, the facts a
// write has just logged (new facts take consecutive FactIDs), into each
// permutation in turn, and advances the write generation if there were
// any.
func (st *Store) indexFrom(first FactID) {
	fresh := st.log.triples[first:]
	if len(fresh) == 0 {
		return
	}
	for i, et := range fresh {
		st.spo.insert(et.s, et.p, first+FactID(i))
	}
	for i, et := range fresh {
		st.pos.insert(et.p, et.o, first+FactID(i))
	}
	for i, et := range fresh {
		st.osp.insert(et.o, et.s, first+FactID(i))
	}
	st.writeGen.Add(1)
}

// mustHaveTerms panics if a term of t is the zero rdf.Term: stored, it
// would be indistinguishable from the wildcard every pattern reads it as.
func mustHaveTerms(t rdf.Triple) {
	if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
		panic(fmt.Sprintf("core: triple %v has an empty term", t))
	}
}

// WriteGen returns the store-wide write generation: a counter that
// advances once per Add or AddBatch/AddBatchMeta call that inserts a new
// fact, and never otherwise (re-asserting a stored fact is no write). It
// is the one validity rule of the reply caches (internal/qcache): a result
// evaluated after reading generation g is current while WriteGen still
// returns g. That holds because a write advances the counter only after
// its facts are indexed: a reader that saw the new value sees the facts,
// and a write racing an evaluation advances the counter past the value
// read before it, so the entry it fills is stale from the start.
func (st *Store) WriteGen() uint64 {
	return st.writeGen.Load()
}

// EstimateMatches returns the number of facts matching the pattern, read
// from the index's counts — one map read once the terms are looked up —
// without touching postings. The count is exact: Match returns as many
// facts unless a write lands in between. The query planner orders joins
// by these estimates; they are also useful for admission decisions in
// serving layers.
func (st *Store) EstimateMatches(pattern rdf.Triple) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	et, ok := st.encode(pattern)
	if !ok {
		return 0
	}
	return st.estimateEnc(et.s, et.p, et.o)
}

// estimateEnc is EstimateMatches over encoded IDs (0 = wildcard): one map
// read, and no term hashed.
func (st *Store) estimateEnc(s, p, o ID) int {
	switch {
	case s != 0 && p != 0 && o != 0:
		if _, ok := st.log.factOf(encTriple{s, p, o}); ok {
			return 1
		}
		return 0
	case s != 0 && p != 0:
		return st.spo.pairCount(s, p)
	case s != 0 && o != 0:
		return st.osp.pairCount(o, s)
	case s != 0:
		return st.spo.leadCount(s)
	case p != 0 && o != 0:
		return st.pos.pairCount(p, o)
	case p != 0:
		return st.pos.leadCount(p)
	case o != 0:
		return st.osp.leadCount(o)
	default:
		return st.log.len()
	}
}

// Has reports whether the triple is asserted.
func (st *Store) Has(t rdf.Triple) bool {
	_, ok := st.FactOf(t)
	return ok
}

// FactOf returns the FactID of an asserted triple.
func (st *Store) FactOf(t rdf.Triple) (FactID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	et, ok := st.encode(t)
	if !ok {
		return NoFact, false
	}
	return st.log.factOf(et) // a zero term encodes as 0, which no fact has
}

// Fact returns the triple for a FactID; ok is false for an ID the store
// has not assigned.
func (st *Store) Fact(id FactID) (rdf.Triple, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	et, ok := st.log.get(id)
	if !ok {
		return rdf.Triple{}, false
	}
	return st.dict.terms.triple(et), true
}

// Len returns the number of facts.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.log.len()
}

// TermCount returns the number of distinct terms in the dictionary.
func (st *Store) TermCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.dict.count()
}

// Match returns every fact matching the pattern. Zero-valued terms
// (rdf.Term{}) act as wildcards. Results are in fact-insertion order.
func (st *Store) Match(pattern rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	st.MatchFunc(pattern, func(_ FactID, t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// MatchFunc streams every fact matching the pattern to fn in
// fact-insertion order, stopping early if fn returns false. fn runs with
// the store's lock released, so it may freely call back into the store.
func (st *Store) MatchFunc(pattern rdf.Triple, fn func(FactID, rdf.Triple) bool) {
	st.mu.RLock()
	et, ok := st.encode(pattern)
	var (
		ids []FactID
		ets []encTriple
	)
	if ok {
		ids, ets = st.matchEnc(et.s, et.p, et.o)
	}
	terms := st.dict.terms
	st.mu.RUnlock()
	for i, id := range ids {
		if !fn(id, terms.triple(ets[i])) {
			return
		}
	}
}

// matchEnc gathers the facts matching the encoded pattern (0 = wildcard),
// sorted by FactID: the candidate IDs are copied from the narrowest index
// and their triples fetched from the fact log. A full scan returns the
// log's own triples, which stay valid to read after the lock is released.
func (st *Store) matchEnc(s, p, o ID) ([]FactID, []encTriple) {
	var cand []FactID
	switch {
	case s != 0 && p != 0 && o != 0:
		et := encTriple{s, p, o}
		id, ok := st.log.factOf(et)
		if !ok {
			return nil, nil
		}
		return []FactID{id}, []encTriple{et}
	case s != 0 && p != 0:
		cand = st.spo.pair(s, p, nil)
	case s != 0 && o != 0:
		cand = st.osp.pair(o, s, nil)
	case s != 0:
		cand = st.spo.lead(s, nil)
	case p != 0 && o != 0:
		cand = st.pos.pair(p, o, nil)
	case p != 0:
		cand = st.pos.lead(p, nil)
	case o != 0:
		cand = st.osp.lead(o, nil)
	default:
		ids := make([]FactID, st.log.len())
		for i := range ids {
			ids[i] = FactID(i)
		}
		return ids, st.log.triples
	}
	if len(cand) == 0 {
		return nil, nil
	}
	slices.Sort(cand)
	ets := make([]encTriple, len(cand))
	for i, id := range cand {
		ets[i] = st.log.triples[id]
	}
	return cand, ets
}

// Objects returns the distinct objects of facts (s, p, ?).
func (st *Store) Objects(s, p string) []rdf.Term {
	var out []rdf.Term
	seen := make(map[rdf.Term]bool)
	st.MatchFunc(rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p)}, func(_ FactID, t rdf.Triple) bool {
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
		return true
	})
	return out
}

// Subjects returns the distinct subjects of facts (?, p, o) where o is an
// IRI.
func (st *Store) Subjects(p, o string) []rdf.Term {
	var out []rdf.Term
	seen := make(map[rdf.Term]bool)
	st.MatchFunc(rdf.Triple{P: rdf.NewIRI(p), O: rdf.NewIRI(o)}, func(_ FactID, t rdf.Triple) bool {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		return true
	})
	return out
}

// Predicates returns the distinct predicates in use, sorted.
func (st *Store) Predicates() []rdf.Term {
	seen := make(map[ID]bool)
	var out []rdf.Term
	st.mu.RLock()
	for _, et := range st.log.triples {
		if !seen[et.p] {
			seen[et.p] = true
			out = append(out, st.dict.terms.term(et.p))
		}
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// All returns every triple in fact-insertion order.
func (st *Store) All() []rdf.Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]rdf.Triple, len(st.log.triples))
	for i, et := range st.log.triples {
		out[i] = st.dict.terms.triple(et)
	}
	return out
}

// Stats summarizes store contents; useful for the kbbuild tool and the
// scaling experiments.
type Stats struct {
	Facts      int // asserted facts
	Terms      int // dictionary size
	Predicates int // distinct predicates in use
	Entities   int // distinct IRI subjects
}

// Stats computes summary statistics.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	subjects := make(map[ID]bool)
	preds := make(map[ID]bool)
	for _, et := range st.log.triples {
		subjects[et.s] = true
		preds[et.p] = true
	}
	entities := 0
	for s := range subjects {
		if st.dict.terms.term(s).IsIRI() {
			entities++
		}
	}
	return Stats{
		Facts:      st.log.len(),
		Terms:      st.dict.count(),
		Predicates: len(preds),
		Entities:   entities,
	}
}

// String renders a short summary, e.g. "kb(12345 facts, 6789 terms)".
func (st *Store) String() string {
	return fmt.Sprintf("kb(%d facts, %d terms)", st.Len(), st.TermCount())
}
