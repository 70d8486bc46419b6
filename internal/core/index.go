package core

import "sync"

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
// re-assignment. Beside its postings, each leading ID keeps the exact
// number of facts filed under it, updated by the same put, so both of the
// planner's counts — under (lead, second) and under lead alone — are one
// map read, however many second IDs a hub predicate or object has.

const (
	indexStripeBits = 4
	indexStripes    = 1 << indexStripeBits // 16
	indexStripeMask = indexStripes - 1
)

type posting struct{ ids []FactID }

// leadPostings is what a stripe files under one leading ID: its postings
// by second ID, and n, the sum of their lengths. It is a map value, not a
// pointer, so a lead costs no allocation of its own.
type leadPostings struct {
	n      int
	second map[ID]*posting
}

type indexStripe struct {
	mu sync.RWMutex
	m  map[ID]leadPostings
}

type permIndex struct {
	stripes [indexStripes]indexStripe
}

func (p *permIndex) init() {
	for i := range p.stripes {
		p.stripes[i].m = make(map[ID]leadPostings)
	}
}

func stripeOf(lead ID) uint32 {
	// Leading IDs carry the dictionary shard in their low bits; mix the
	// local index in so stripe choice is independent of dictionary shard.
	return (uint32(lead) ^ uint32(lead)>>indexStripeBits) & indexStripeMask
}

func (st *indexStripe) put(a, b ID, f FactID) {
	l := st.m[a]
	if l.second == nil {
		l.second = make(map[ID]*posting)
	}
	pl, ok := l.second[b]
	if !ok {
		pl = &posting{}
		l.second[b] = pl
	}
	pl.ids = append(pl.ids, f)
	l.n++
	st.m[a] = l
}

// insert adds one fact under (a, b). One stripe lock acquisition.
func (p *permIndex) insert(a, b ID, f FactID) {
	s := &p.stripes[stripeOf(a)]
	s.mu.Lock()
	s.put(a, b, f)
	s.mu.Unlock()
}

// idxEntry is one pending index insertion of a batch.
type idxEntry struct {
	a, b ID
	f    FactID
}

// insertBatch adds every entry, taking each stripe's lock at most once.
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
		stripe.mu.Unlock()
	}
}

// pair appends the fact IDs filed under (a, b) to buf and returns it.
func (p *permIndex) pair(a, b ID, buf []FactID) []FactID {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	if pl, ok := s.m[a].second[b]; ok {
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
	for _, pl := range s.m[a].second {
		buf = append(buf, pl.ids...)
	}
	s.mu.RUnlock()
	return buf
}

// pairCount returns the posting length under (a, b), the exact number of
// facts filed there: one read of the lead's postings map.
func (p *permIndex) pairCount(a, b ID) int {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	n := 0
	if pl, ok := s.m[a].second[b]; ok {
		n = len(pl.ids)
	}
	s.mu.RUnlock()
	return n
}

// leadCount returns the exact number of facts whose leading term is a:
// one map read of the total put keeps beside the lead's postings.
func (p *permIndex) leadCount(a ID) int {
	s := &p.stripes[stripeOf(a)]
	s.mu.RLock()
	n := s.m[a].n
	s.mu.RUnlock()
	return n
}
