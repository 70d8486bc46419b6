package core

import (
	"sync"
	"sync/atomic"
)

// The index layer: each of the three permutations (spo/pos/osp) is a
// permIndex of indexStripes independently locked stripes, keyed by the
// permutation's leading ID. A write touches exactly one stripe per
// permutation, so concurrent writers with different leading terms never
// contend; readers take a stripe read lock only long enough to copy the
// matching fact IDs out.
//
// Postings are append-only: the store never retracts a fact, and the fact
// log's dedup index admits each triple once, so a posting holds exactly the
// facts filed under its key and its length is an exact match count.
// Postings are held behind pointers (map[ID]*posting) so appending to an
// existing posting list costs one map access instead of an access plus a
// re-assignment.
//
// Each stripe additionally carries a write generation counter, bumped on
// every insertion into the stripe. The counter lets the result cache
// (internal/qcache) validate a cached pattern result with a single atomic
// load: if the generation of the stripe a pattern reads from is unchanged
// since the result was computed, no write can have altered the pattern's
// matches. Writers only bump atomics — they never touch cache state or
// cache locks.

const (
	indexStripeBits = 4
	indexStripes    = 1 << indexStripeBits // 16
	indexStripeMask = indexStripes - 1
)

type posting struct{ ids []FactID }

type indexStripe struct {
	mu  sync.RWMutex
	gen atomic.Uint64
	m   map[ID]map[ID]*posting // leading -> second -> facts
}

type permIndex struct {
	stripes [indexStripes]indexStripe
}

func (p *permIndex) init() {
	for i := range p.stripes {
		p.stripes[i].m = make(map[ID]map[ID]*posting)
	}
}

func stripeOf(lead ID) uint32 {
	// Leading IDs carry the dictionary shard in their low bits; mix the
	// local index in so stripe choice is independent of dictionary shard.
	return (uint32(lead) ^ uint32(lead)>>indexStripeBits) & indexStripeMask
}

func (st *indexStripe) put(a, b ID, f FactID) {
	inner, ok := st.m[a]
	if !ok {
		inner = make(map[ID]*posting)
		st.m[a] = inner
	}
	pl, ok := inner[b]
	if !ok {
		pl = &posting{}
		inner[b] = pl
	}
	pl.ids = append(pl.ids, f)
}

// insert adds one fact under (a, b). One stripe lock acquisition.
func (p *permIndex) insert(a, b ID, f FactID) {
	s := &p.stripes[stripeOf(a)]
	s.mu.Lock()
	s.put(a, b, f)
	s.gen.Add(1)
	s.mu.Unlock()
}

// idxEntry is one pending index insertion of a batch.
type idxEntry struct {
	a, b ID
	f    FactID
}

// insertBatch adds every entry, taking each stripe's lock at most once and
// bumping each touched stripe's generation once.
func (p *permIndex) insertBatch(entries []idxEntry) {
	var byStripe [indexStripes][]idxEntry
	for _, e := range entries {
		s := stripeOf(e.a)
		byStripe[s] = append(byStripe[s], e)
	}
	for s := range byStripe {
		if len(byStripe[s]) == 0 {
			continue
		}
		stripe := &p.stripes[s]
		stripe.mu.Lock()
		for _, e := range byStripe[s] {
			stripe.put(e.a, e.b, e.f)
		}
		stripe.gen.Add(1)
		stripe.mu.Unlock()
	}
}

// pair appends the fact IDs filed under (a, b) to buf and returns it.
func (p *permIndex) pair(a, b ID, buf []FactID) []FactID {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	if pl, ok := s.m[a][b]; ok {
		buf = append(buf, pl.ids...)
	}
	s.mu.RUnlock()
	return buf
}

// lead appends every fact ID whose leading term is a to buf and returns
// it. Order is unspecified; callers sort by FactID.
func (p *permIndex) lead(a ID, buf []FactID) []FactID {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	for _, pl := range s.m[a] {
		buf = append(buf, pl.ids...)
	}
	s.mu.RUnlock()
	return buf
}

// pairCount returns the posting length under (a, b): the exact number of
// facts filed there.
func (p *permIndex) pairCount(a, b ID) int {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	n := 0
	if pl, ok := s.m[a][b]; ok {
		n = len(pl.ids)
	}
	s.mu.RUnlock()
	return n
}

// leadCount returns the total posting length under leading term a: the
// exact number of facts whose leading term is a.
func (p *permIndex) leadCount(a ID) int {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	n := 0
	for _, pl := range s.m[a] {
		n += len(pl.ids)
	}
	s.mu.RUnlock()
	return n
}

// genOf returns the current write generation of the stripe that indexes
// leading term a.
func (p *permIndex) genOf(a ID) uint64 {
	return p.stripes[stripeOf(a)].gen.Load()
}
