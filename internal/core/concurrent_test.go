package core

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kbharvest/internal/rdf"
)

// stressTriple makes a deterministic triple from a worker id and counter,
// with enough key collisions that workers contend on shared terms, facts,
// and stripes.
func stressTriple(w, i int) rdf.Triple {
	return rdf.T(
		fmt.Sprintf("kb:s%d", (w*1000+i)%97),
		fmt.Sprintf("kb:p%d", i%7),
		fmt.Sprintf("kb:o%d", i%53),
	)
}

// TestStoreConcurrentStress hammers one store from >=8 goroutines mixing
// Add, AddBatch, AddBatchMeta, re-assertions of facts other goroutines are
// adding, pattern queries, joins, and Snapshot, and must pass under
// `go test -race ./internal/core/`.
func TestStoreConcurrentStress(t *testing.T) {
	st := NewStore()
	const (
		writers     = 4
		batchers    = 2
		reasserters = 2
		readers     = 4
		iters       = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := st.Add(stressTriple(w, i))
				if i%3 == 0 {
					st.SetInfo(id, FactInfo{Confidence: 0.5})
				}
			}
		}(w)
	}
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < iters; i += 32 {
				batch := make([]rdf.Triple, 0, 32)
				infos := make([]FactInfo, 0, 32)
				for j := 0; j < 32; j++ {
					batch = append(batch, stressTriple(100+b, i+j))
					infos = append(infos, FactInfo{Confidence: 0.9, Source: "stress"})
				}
				if b == 0 {
					st.AddBatch(batch)
				} else {
					st.AddBatchMeta(batch, infos)
				}
			}
		}(b)
	}
	for r := 0; r < reasserters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st.Add(stressTriple(r, i)) // the same facts writer r adds
			}
		}(r)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					st.Match(rdf.Triple{P: rdf.NewIRI(fmt.Sprintf("kb:p%d", i%7))})
				case 1:
					st.Match(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("kb:s%d", i%97))})
				case 2:
					st.Query([]Pattern{
						{S: PVar("x"), P: PIRI("kb:p1"), O: PVar("y")},
					})
				case 3:
					if err := st.Save(io.Discard); err != nil {
						t.Errorf("Save: %v", err)
					}
				case 4:
					st.Stats()
					st.Predicates()
				}
			}
		}(r)
	}
	wg.Wait()

	// Every triple asserted must be present and indexed consistently.
	for w := 0; w < writers; w++ {
		for i := 0; i < iters; i++ {
			tr := stressTriple(w, i)
			if !st.Has(tr) {
				t.Fatalf("missing fact %v after stress", tr)
			}
		}
	}
	// The three index permutations and the log must agree.
	n := st.Len()
	if got := len(st.Match(rdf.Triple{})); got != n {
		t.Errorf("full scan %d != Len %d", got, n)
	}
	perPred := 0
	for p := 0; p < 7; p++ {
		perPred += len(st.Match(rdf.Triple{P: rdf.NewIRI(fmt.Sprintf("kb:p%d", p))}))
	}
	if perPred != n {
		t.Errorf("per-predicate sum %d != Len %d", perPred, n)
	}
	// Estimates stay exact counts after the contention.
	checkEstimatesExact(t, st)
}

// TestBatchSequentialDeterminism: inserting the same triples via AddBatch
// must yield a store observationally identical to per-triple Add — same
// FactIDs, same results in the same order for every query shape.
func TestBatchSequentialDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	var triples []rdf.Triple
	for i := 0; i < 500; i++ {
		triples = append(triples, rdf.T(
			names[r.Intn(len(names))],
			names[r.Intn(len(names))],
			names[r.Intn(len(names))],
		))
	}
	seq := NewStore()
	var seqIDs []FactID
	for _, tr := range triples {
		seqIDs = append(seqIDs, seq.Add(tr))
	}
	bat := NewStore()
	var batIDs []FactID
	for i := 0; i < len(triples); i += 64 {
		end := i + 64
		if end > len(triples) {
			end = len(triples)
		}
		batIDs = append(batIDs, bat.AddBatch(triples[i:end])...)
	}
	if !reflect.DeepEqual(seqIDs, batIDs) {
		t.Fatal("batch insertion assigned different FactIDs than sequential")
	}
	if !reflect.DeepEqual(seq.All(), bat.All()) {
		t.Fatal("All() differs between batch and sequential insertion")
	}
	pos := func(i int) rdf.Term {
		if i < 0 {
			return rdf.Term{}
		}
		return rdf.NewIRI(names[i])
	}
	for s := -1; s < len(names); s++ {
		for p := -1; p < len(names); p++ {
			for o := -1; o < len(names); o++ {
				pat := rdf.Triple{S: pos(s), P: pos(p), O: pos(o)}
				if !reflect.DeepEqual(seq.Match(pat), bat.Match(pat)) {
					t.Fatalf("Match(%v) differs between batch and sequential", pat)
				}
			}
		}
	}
	q := []Pattern{
		{S: PVar("x"), P: PIRI("b"), O: PVar("y")},
		{S: PVar("y"), P: PIRI("c"), O: PVar("z")},
	}
	qa, qb := seq.Query(q), bat.Query(q)
	SortBindings(qa, "x", "y", "z")
	SortBindings(qb, "x", "y", "z")
	if !reflect.DeepEqual(qa, qb) {
		t.Fatal("Query results differ between batch and sequential insertion")
	}
}

func TestAddBatchDedupAndIDs(t *testing.T) {
	st := NewStore()
	pre := st.Add(rdf.T("x", "p", "y"))
	ids := st.AddBatch([]rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("x", "p", "y"), // duplicate of pre-existing fact
		rdf.T("a", "p", "b"), // duplicate within batch
		rdf.T("c", "p", "d"),
	})
	if len(ids) != 4 {
		t.Fatalf("got %d ids", len(ids))
	}
	if ids[1] != pre {
		t.Errorf("cross-store duplicate got id %d, want %d", ids[1], pre)
	}
	if ids[0] != ids[2] {
		t.Errorf("in-batch duplicate got ids %d and %d", ids[0], ids[2])
	}
	if st.Len() != 3 {
		t.Errorf("Len = %d, want 3", st.Len())
	}
	if st.AddBatch(nil) != nil {
		t.Error("empty batch should return nil")
	}
}

func TestAddBatchMeta(t *testing.T) {
	st := NewStore()
	ts := []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("b", "p", "c")}
	infos := []FactInfo{
		{Confidence: 0.7, Source: "doc1"},
		{Confidence: 0.4, Source: "doc2", Time: Interval{Begin: 10, End: 20}},
	}
	ids := st.AddBatchMeta(ts, infos)
	got0, _ := st.Info(ids[0])
	if got0.Confidence != 0.7 || got0.Source != "doc1" || got0.Time != Always {
		t.Errorf("info[0] = %+v", got0)
	}
	got1, _ := st.Info(ids[1])
	if got1.Confidence != 0.4 || got1.Time != (Interval{Begin: 10, End: 20}) {
		t.Errorf("info[1] = %+v", got1)
	}
	// Re-asserting with metadata overwrites, like SetInfo.
	st.AddBatchMeta(ts[:1], []FactInfo{{Confidence: 0.9, Source: "doc3"}})
	got0, _ = st.Info(ids[0])
	if got0.Confidence != 0.9 || got0.Source != "doc3" {
		t.Errorf("info[0] after overwrite = %+v", got0)
	}
	// Mutating the caller's infos slice afterwards must not leak into the
	// store (metadata is copied).
	infos[1].Confidence = 0.99
	got1, _ = st.Info(ids[1])
	if got1.Confidence != 0.4 {
		t.Errorf("stored metadata aliases caller slice: %+v", got1)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	st.AddBatchMeta(ts, infos[:1])
}
