package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

func fact(i int) (rdf.Triple, core.FactInfo) {
	return rdf.T(fmt.Sprintf("kb:s%d", i), "kb:p", fmt.Sprintf("kb:o%d", i)),
		core.FactInfo{Confidence: 0.9, Source: "test", Time: core.Always}
}

// TestFlushVisibility: every fact emitted before Flush is in the store
// when Flush returns, across several producers and odd batch sizes.
func TestFlushVisibility(t *testing.T) {
	st := core.NewStore()
	in := New(context.Background(), st, Options{BatchSize: 7, QueueDepth: 2, Drainers: 3})
	const producers, each = 4, 253
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		p := in.Producer()
		wg.Add(1)
		go func(w int, p *Producer) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr, info := fact(w*each + i)
				if err := p.Emit(tr, info); err != nil {
					t.Errorf("emit: %v", err)
					return
				}
			}
		}(w, p)
	}
	wg.Wait()
	if err := in.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got, want := st.Len(), producers*each; got != want {
		t.Fatalf("after flush store has %d facts, want %d", got, want)
	}
	if in.writtenFacts() != producers*each {
		t.Errorf("written = %d, want %d", in.writtenFacts(), producers*each)
	}
	// Metadata rode along.
	id, ok := st.FactOf(rdf.T("kb:s0", "kb:p", "kb:o0"))
	if !ok {
		t.Fatal("fact missing")
	}
	if info, _ := st.Info(id); info.Source != "test" {
		t.Errorf("info = %+v", info)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := in.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("flush after close = %v, want ErrClosed", err)
	}
}

// slowStore blocks every write until released.
type slowStore struct {
	st      *core.Store
	release chan struct{} // one receive per allowed write
}

func (s *slowStore) AddBatchMeta(ts []rdf.Triple, infos []core.FactInfo) []core.FactID {
	<-s.release
	return s.st.AddBatchMeta(ts, infos)
}

// TestBackpressure: with a slow store and a bounded queue, a producer
// blocks once queue + in-flight slots are exhausted, and resumes when the
// store drains.
func TestBackpressure(t *testing.T) {
	slow := &slowStore{st: core.NewStore(), release: make(chan struct{})}
	in := New(context.Background(), slow, Options{BatchSize: 1, QueueDepth: 2, Drainers: 1})
	p := in.Producer()

	// 1 batch stuck in the drainer + 2 in the queue fill every slot.
	const capacity = 3
	var progress atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < capacity+1; i++ {
			tr, info := fact(i)
			if err := p.Emit(tr, info); err != nil {
				t.Errorf("emit %d: %v", i, err)
				return
			}
			progress.Add(1)
		}
	}()
	// The producer must get exactly `capacity` emits through, then stall.
	deadline := time.Now().Add(5 * time.Second)
	for progress.Load() < capacity {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled the queue")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := progress.Load(); n != capacity {
		t.Fatalf("emit %d returned despite full queue", n)
	}
	// Release the store: the stalled emit completes.
	for i := 0; i < capacity+1; i++ {
		slow.release <- struct{}{}
	}
	select {
	case <-finished:
		if n := progress.Load(); n != capacity+1 {
			t.Fatalf("resumed emit count = %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not resume after store drained")
	}
	if err := in.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if slow.st.Len() != capacity+1 {
		t.Errorf("store has %d facts, want %d", slow.st.Len(), capacity+1)
	}
}

// TestErrorPropagation: the first failing batch poisons the ingester —
// later emits, Flush, and Close all surface that first error.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("disk full")
	var writes int
	var mu sync.Mutex
	in := NewFunc(context.Background(), func(ts []rdf.Triple, infos []core.FactInfo) error {
		mu.Lock()
		writes++
		n := writes
		mu.Unlock()
		if n == 2 {
			return boom
		}
		return nil
	}, Options{BatchSize: 2, QueueDepth: 1, Drainers: 1})
	p := in.Producer()
	var sawErr error
	for i := 0; i < 1000; i++ {
		tr, info := fact(i)
		if err := p.Emit(tr, info); err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, boom) {
		t.Fatalf("emit error = %v, want %v", sawErr, boom)
	}
	if err := in.Flush(); !errors.Is(err, boom) {
		t.Errorf("flush error = %v, want %v", err, boom)
	}
	if err := in.Close(); !errors.Is(err, boom) {
		t.Errorf("close error = %v, want %v", err, boom)
	}
}

// TestCancellationUnblocks: a producer blocked on a full queue returns
// promptly once the context is cancelled, as do Flush and Close.
func TestCancellationUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := &slowStore{st: core.NewStore(), release: make(chan struct{})}
	in := New(ctx, slow, Options{BatchSize: 1, QueueDepth: 1, Drainers: 1})
	p := in.Producer()

	errc := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 10 && err == nil; i++ { // plenty to jam the queue
			tr, info := fact(i)
			err = p.Emit(tr, info)
		}
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the producer wedge
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("emit after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after cancel")
	}
	if err := in.Flush(); !errors.Is(err, context.Canceled) {
		t.Errorf("flush after cancel = %v", err)
	}
	// Unwedge the drainer stuck inside the slow write so Close can join it.
	close(slow.release)
	if err := in.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("close after cancel = %v", err)
	}
}

// TestPreCancelled: an ingester built from an already-cancelled context
// refuses work immediately.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := New(ctx, core.NewStore(), Options{})
	p := in.Producer()
	deadline := time.After(5 * time.Second)
	for {
		tr, info := fact(0)
		err := p.Emit(tr, info)
		if errors.Is(err, context.Canceled) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("emit never observed the cancelled context")
		default:
		}
	}
	if err := in.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("close = %v", err)
	}
}

// TestCloseIdempotent: double Close is safe and returns the same result.
func TestCloseIdempotent(t *testing.T) {
	st := core.NewStore()
	in := New(context.Background(), st, Options{BatchSize: 4})
	p := in.Producer()
	for i := 0; i < 10; i++ {
		tr, info := fact(i)
		if err := p.Emit(tr, info); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if st.Len() != 10 {
		t.Errorf("store has %d facts, want 10", st.Len())
	}
	tr, info := fact(99)
	if err := p.Emit(tr, info); !errors.Is(err, ErrClosed) {
		t.Errorf("emit after close = %v, want ErrClosed", err)
	}
}

// TestDuplicatesCollapse: the write-behind path preserves the store's
// dedup semantics — emitting the same triple from many producers yields
// one fact.
func TestDuplicatesCollapse(t *testing.T) {
	st := core.NewStore()
	in := New(context.Background(), st, Options{BatchSize: 3, Drainers: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		p := in.Producer()
		wg.Add(1)
		go func(p *Producer) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr, info := fact(i % 5)
				if err := p.Emit(tr, info); err != nil {
					t.Errorf("emit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 5 {
		t.Errorf("store has %d facts, want 5", st.Len())
	}
	if in.writtenFacts() != 400 {
		t.Errorf("written = %d, want 400", in.writtenFacts())
	}
}
