// Package core implements the knowledge base itself: a dictionary-encoded
// in-memory triple store built for massively parallel harvesting, with
// per-fact metadata (confidence, provenance, temporal scope), taxonomy
// operations over rdf:type / rdfs:subClassOf, a small conjunctive
// (SPARQL-BGP-style) query engine, and snapshot persistence.
//
// This is the substrate every other module of the reproduction reads from
// and writes to — the role that the RDF stores behind DBpedia, YAGO, and
// Freebase play in the tutorial (§2). Because web-scale KB construction
// only works when the store absorbs many concurrent extraction workers,
// the store is layered for concurrency rather than guarded by one lock:
//
//   - dictionary shards (dict.go): term interning is hash-sharded over 16
//     independently locked shards; IDs encode their shard in the low bits.
//   - index stripes (index.go): each index permutation (spo/pos/osp) is
//     split into 16 stripes keyed by leading ID, so writers with
//     different leading terms never contend and readers only hold a
//     stripe lock while copying fact IDs out. Each leading ID keeps its
//     exact fact count beside its postings, so every match count the
//     planner asks for is one map read.
//   - fact log (factlog.go): the dense FactID-ordered triple log with the
//     exact-match dedup index and per-fact metadata, with short critical
//     sections.
//
// No operation holds two layer locks at once, so the store is deadlock
// free by construction. The batch write path — AddBatch / AddBatchMeta —
// interns, logs, and indexes a whole batch with at most one lock
// acquisition per shard or stripe, and is the preferred ingestion API for
// extraction pipelines; per-triple Add remains for incremental use.
// Pattern enumeration is sorted by FactID, so batch and sequential
// insertion of the same triples answer every query identically.
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
	"sync/atomic"

	"kbharvest/internal/rdf"
)

// ID is a dictionary-encoded term identifier. The low bits carry the
// dictionary shard, the rest the shard-local index; 0 is reserved as
// "no term" / wildcard.
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
	dict *termDict
	log  *factLog

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
	st := &Store{
		dict: newTermDict(),
		log:  newFactLog(),
	}
	st.spo.init()
	st.pos.init()
	st.osp.init()
	return st
}

// lookup returns the ID for a term, or 0 if the term is unknown or a
// wildcard (zero Term).
func (st *Store) lookup(t rdf.Term) (ID, bool) {
	if t.IsZero() {
		return 0, true // wildcard
	}
	return st.dict.lookup(t)
}

// Add asserts a triple and returns its FactID. Adding an existing triple
// is idempotent and returns the original FactID. Add panics if a term of
// t is the zero rdf.Term, which patterns read as a wildcard.
func (st *Store) Add(t rdf.Triple) FactID {
	mustHaveTerms(t)
	et := encTriple{st.dict.intern(t.S), st.dict.intern(t.P), st.dict.intern(t.O)}
	id, isNew := st.log.add(et)
	if isNew {
		st.spo.insert(et.s, et.p, id)
		st.pos.insert(et.p, et.o, id)
		st.osp.insert(et.o, et.s, id)
		st.writeGen.Add(1)
	}
	return id
}

// AddBatch asserts every triple through the batch write path: terms are
// interned per dictionary shard, the fact log is appended under a single
// lock acquisition (FactIDs assigned in input order), and index insertions
// are grouped per stripe. Duplicate triples — within the batch or against
// the store — reuse their existing FactID, exactly like repeated Add
// calls. Like Add, it panics on a zero-valued term, before it changes
// anything.
func (st *Store) AddBatch(ts []rdf.Triple) []FactID {
	return st.addBatch(ts, nil)
}

// AddBatchMeta is AddBatch plus per-fact metadata: infos[i] is attached to
// ts[i] in the same fact-log critical section (overwriting existing
// metadata on duplicates, like SetInfo). infos must have the same length
// as ts, and no term may be zero-valued; AddBatchMeta panics otherwise.
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

func (st *Store) addBatch(ts []rdf.Triple, infos []*FactInfo) []FactID {
	n := len(ts)
	if n == 0 {
		return nil
	}
	// Layer 1: intern all terms, grouped by dictionary shard.
	terms := make([]rdf.Term, 3*n)
	for i, t := range ts {
		mustHaveTerms(t)
		terms[3*i], terms[3*i+1], terms[3*i+2] = t.S, t.P, t.O
	}
	termIDs := make([]ID, 3*n)
	st.dict.internAll(terms, termIDs)
	ets := make([]encTriple, n)
	for i := range ts {
		ets[i] = encTriple{termIDs[3*i], termIDs[3*i+1], termIDs[3*i+2]}
	}
	// Layer 3: append to the fact log in input order, one lock.
	ids := make([]FactID, n)
	fresh := make([]bool, n)
	st.log.addBatch(ets, ids, fresh, infos)
	// Layer 2: index the new facts, grouped by stripe per permutation.
	entries := make([]idxEntry, 0, n)
	for i := range ets {
		if fresh[i] {
			entries = append(entries, idxEntry{ets[i].s, ets[i].p, ids[i]})
		}
	}
	st.spo.insertBatch(entries)
	for j, i := 0, 0; i < n; i++ {
		if fresh[i] {
			entries[j] = idxEntry{ets[i].p, ets[i].o, ids[i]}
			j++
		}
	}
	st.pos.insertBatch(entries)
	for j, i := 0, 0; i < n; i++ {
		if fresh[i] {
			entries[j] = idxEntry{ets[i].o, ets[i].s, ids[i]}
			j++
		}
	}
	st.osp.insertBatch(entries)
	if len(entries) > 0 {
		st.writeGen.Add(1)
	}
	return ids
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
	s, ok := st.lookup(pattern.S)
	if !ok {
		return 0
	}
	p, ok := st.lookup(pattern.P)
	if !ok {
		return 0
	}
	o, ok := st.lookup(pattern.O)
	if !ok {
		return 0
	}
	return st.estimateEnc(s, p, o)
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
	s, ok1 := st.dict.lookup(t.S)
	p, ok2 := st.dict.lookup(t.P)
	o, ok3 := st.dict.lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return NoFact, false
	}
	return st.log.factOf(encTriple{s, p, o})
}

// Fact returns the triple for a FactID; ok is false for an ID the store
// has not assigned.
func (st *Store) Fact(id FactID) (rdf.Triple, bool) {
	et, ok := st.log.get(id)
	if !ok {
		return rdf.Triple{}, false
	}
	return st.decode(et), true
}

func (st *Store) decode(et encTriple) rdf.Triple {
	return rdf.Triple{S: st.dict.term(et.s), P: st.dict.term(et.p), O: st.dict.term(et.o)}
}

// Len returns the number of facts.
func (st *Store) Len() int {
	return st.log.len()
}

// TermCount returns the number of distinct terms in the dictionary.
func (st *Store) TermCount() int {
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
// no store locks held, so it may freely call back into the store.
func (st *Store) MatchFunc(pattern rdf.Triple, fn func(FactID, rdf.Triple) bool) {
	s, ok := st.lookup(pattern.S)
	if !ok {
		return
	}
	p, ok := st.lookup(pattern.P)
	if !ok {
		return
	}
	o, ok := st.lookup(pattern.O)
	if !ok {
		return
	}
	ids, ets := st.matchEnc(s, p, o)
	for i, id := range ids {
		if !fn(id, st.decode(ets[i])) {
			return
		}
	}
}

// matchEnc gathers the facts matching the encoded pattern (0 = wildcard),
// sorted by FactID: the candidate IDs are copied from the narrowest index
// and their triples fetched in one fact-log pass.
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
		ets := st.log.scan()
		ids := make([]FactID, len(ets))
		for i := range ids {
			ids[i] = FactID(i)
		}
		return ids, ets
	}
	if len(cand) == 0 {
		return nil, nil
	}
	slices.Sort(cand)
	return cand, st.log.resolve(cand)
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
	ets := st.log.scan()
	seen := make(map[ID]bool)
	var out []rdf.Term
	for _, et := range ets {
		if !seen[et.p] {
			seen[et.p] = true
			out = append(out, st.dict.term(et.p))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// All returns every triple in fact-insertion order.
func (st *Store) All() []rdf.Triple {
	ets := st.log.scan()
	out := make([]rdf.Triple, len(ets))
	for i, et := range ets {
		out[i] = st.decode(et)
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
	ets := st.log.scan()
	subjects := make(map[ID]bool)
	preds := make(map[ID]bool)
	for _, et := range ets {
		subjects[et.s] = true
		preds[et.p] = true
	}
	entities := 0
	for s := range subjects {
		if st.dict.term(s).IsIRI() {
			entities++
		}
	}
	return Stats{
		Facts:      len(ets),
		Terms:      st.dict.count(),
		Predicates: len(preds),
		Entities:   entities,
	}
}

// String renders a short summary, e.g. "kb(12345 facts, 6789 terms)".
func (st *Store) String() string {
	return fmt.Sprintf("kb(%d facts, %d terms)", st.Len(), st.TermCount())
}
