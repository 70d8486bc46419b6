package core

// The index layer: each of the three permutations (spo/pos/osp) is a
// permIndex keyed by the permutation's leading ID. The index has no lock
// of its own: the store's lock guards it, and readers hold it only long
// enough to copy the matching fact IDs out.
//
// Postings are append-only: the store never retracts a fact, and the fact
// log's dedup index admits each triple once, so a posting holds exactly the
// facts filed under its key and its length is an exact match count.
// Postings are held behind pointers (map[ID]*posting) so appending to an
// existing posting list costs one map access instead of an access plus a
// re-assignment. Beside its postings, each leading ID keeps the exact
// number of facts filed under it, updated by the same insert, so both of
// the planner's counts — under (lead, second) and under lead alone — are
// one map read, however many second IDs a hub predicate or object has.

type posting struct{ ids []FactID }

// leadPostings is what a permutation files under one leading ID: its
// postings by second ID, and n, the sum of their lengths. It is a map
// value, not a pointer, so a lead costs no allocation of its own.
type leadPostings struct {
	n      int
	second map[ID]*posting
}

type permIndex map[ID]leadPostings

// insert files fact f under (a, b).
func (p permIndex) insert(a, b ID, f FactID) {
	l := p[a]
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
	p[a] = l
}

// pair appends the fact IDs filed under (a, b) to buf and returns it.
func (p permIndex) pair(a, b ID, buf []FactID) []FactID {
	if pl, ok := p[a].second[b]; ok {
		buf = append(buf, pl.ids...)
	}
	return buf
}

// lead appends every fact ID whose leading term is a to buf and returns
// it. Order is unspecified; callers sort by FactID.
func (p permIndex) lead(a ID, buf []FactID) []FactID {
	for _, pl := range p[a].second {
		buf = append(buf, pl.ids...)
	}
	return buf
}

// pairCount returns the posting length under (a, b), the exact number of
// facts filed there: one read of the lead's postings map.
func (p permIndex) pairCount(a, b ID) int {
	if pl, ok := p[a].second[b]; ok {
		return len(pl.ids)
	}
	return 0
}

// leadCount returns the exact number of facts whose leading term is a:
// one map read of the total insert keeps beside the lead's postings.
func (p permIndex) leadCount(a ID) int { return p[a].n }
