// Package ingest is the write-behind ingestion layer between extraction
// and the knowledge base (the ROADMAP "async ingest" item): extraction
// workers emit facts into per-producer buffers, full buffers are handed to
// a bounded queue, and dedicated drainer goroutines write them into the
// store through its batch write path (AddBatchMeta). Extraction latency is
// thereby decoupled from store lock acquisition — a producer pays only an
// append until its buffer fills, and even then it blocks only if every
// queue slot is in use (backpressure), never on the store itself.
//
// The layer gives three guarantees:
//
//   - Visibility: Flush returns only after every fact emitted before the
//     call is visible in the store; Close is Flush plus shutdown.
//   - Error propagation: the first write error (or context cancellation)
//     is sticky — every subsequent Emit, Flush, and Close returns it, so a
//     failing sink stops producers promptly instead of silently dropping
//     facts.
//   - Prompt cancellation: a producer blocked on a full queue, or a Flush
//     waiting for in-flight batches, unblocks as soon as the ingester's
//     context is cancelled.
//
// One Ingester serves many producers; each Producer is itself safe for
// concurrent use but is cheapest when owned by a single goroutine (the
// intended shape: one producer per extraction worker).
//
// The store takes its one lock per batch, so drainers' writes serialise:
// more drainers overlap only the hand-off, not the inserts. Drainers
// write batches in whatever order they win the store, so FactID
// order is not reproducible through this layer. The construction pipeline
// (internal/pipeline) therefore does not use it: it writes each stage with
// one batch, so that a seed always builds the same snapshot.
package ingest

import (
	"context"
	"errors"
	"sync"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// BatchStore is the store-side write path drained into. *core.Store
// satisfies it; tests may substitute recorders.
type BatchStore interface {
	AddBatchMeta(ts []rdf.Triple, infos []core.FactInfo) []core.FactID
}

// WriteFunc is the generalized sink signature: one batch of triples with
// parallel metadata, returning the write error (nil for *core.Store).
type WriteFunc func(ts []rdf.Triple, infos []core.FactInfo) error

// ErrClosed is returned by Emit and Flush after Close.
var ErrClosed = errors.New("ingest: ingester closed")

// Options tune an Ingester. The zero value means all defaults.
type Options struct {
	// BatchSize is the per-producer buffer size: a producer hands its
	// buffer to the queue once it holds this many facts. Default 1024.
	BatchSize int
	// QueueDepth bounds the handoff queue in batches; a producer whose
	// buffer fills while the queue is full blocks (backpressure).
	// Default 8.
	QueueDepth int
	// Drainers is the number of dedicated goroutines writing queued
	// batches into the store. Default 2.
	Drainers int
}

// DefaultBatchSize is the per-producer buffer threshold when none is given.
const DefaultBatchSize = 1024

// DefaultQueueDepth is the queue bound (in batches) when none is given.
const DefaultQueueDepth = 8

// DefaultDrainers is the drainer goroutine count when none is given.
const DefaultDrainers = 2

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.Drainers <= 0 {
		o.Drainers = DefaultDrainers
	}
	return o
}

// batch is one unit of queue handoff.
type batch struct {
	ts    []rdf.Triple
	infos []core.FactInfo
}

// Ingester is the write-behind front of a store. Create with New (or
// NewFunc for a custom sink), obtain one Producer per emitting goroutine,
// and Close when all producers are done. Close must not race with Emit.
type Ingester struct {
	write WriteFunc
	opt   Options
	ctx   context.Context

	queue    chan batch
	drainers sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when pending drops or err becomes set
	pending   int        // batches enqueued but not yet written (or discarded)
	err       error      // first write/context error, sticky
	closed    bool
	written   int // facts written to the sink
	producers []*Producer
}

// New returns an Ingester draining into st. The context bounds the
// ingester's lifetime: once cancelled, blocked producers and flushes
// return promptly with the context error.
func New(ctx context.Context, st BatchStore, opt Options) *Ingester {
	return NewFunc(ctx, func(ts []rdf.Triple, infos []core.FactInfo) error {
		st.AddBatchMeta(ts, infos)
		return nil
	}, opt)
}

// NewFunc is New with an arbitrary batch sink.
func NewFunc(ctx context.Context, write WriteFunc, opt Options) *Ingester {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	in := &Ingester{
		write: write,
		opt:   opt,
		ctx:   ctx,
		queue: make(chan batch, opt.QueueDepth),
	}
	in.cond = sync.NewCond(&in.mu)
	for i := 0; i < opt.Drainers; i++ {
		in.drainers.Add(1)
		go in.drain()
	}
	// Wake blocked Flush/Close waiters the moment the context dies.
	go func() {
		<-ctx.Done()
		in.fail(ctx.Err())
	}()
	return in
}

// drain is one dedicated writer: it moves batches from the queue into the
// sink until the queue is closed. After a failure (or cancellation) it
// keeps draining but discards, so blocked producers unwedge quickly.
func (in *Ingester) drain() {
	defer in.drainers.Done()
	for b := range in.queue {
		if in.Err() != nil {
			in.settle(0, nil)
			continue
		}
		err := in.write(b.ts, b.infos)
		in.settle(len(b.ts), err)
	}
}

// settle records one batch leaving the queue: counts it (n > 0 means
// written), latches the first error, and wakes waiters.
func (in *Ingester) settle(n int, err error) {
	in.mu.Lock()
	in.pending--
	if n > 0 {
		in.written += n
	}
	if err != nil && in.err == nil {
		in.err = err
	}
	in.cond.Broadcast()
	in.mu.Unlock()
}

// fail latches err as the ingester's first error and wakes waiters.
func (in *Ingester) fail(err error) {
	if err == nil {
		return
	}
	in.mu.Lock()
	if in.err == nil {
		in.err = err
	}
	in.cond.Broadcast()
	in.mu.Unlock()
}

// Err returns the sticky first error (a failed write, or the context
// error once cancelled), or nil.
func (in *Ingester) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.err
}

// state is Err plus the closed flag, for producer-side fast checks.
func (in *Ingester) state() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.err != nil {
		return in.err
	}
	if in.closed {
		return ErrClosed
	}
	return nil
}

// writtenFacts returns the number of facts written to the sink so far.
func (in *Ingester) writtenFacts() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.written
}

// enqueue hands one batch to the drainers, blocking while the queue is
// full (backpressure) but returning promptly on cancellation.
func (in *Ingester) enqueue(b batch) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return ErrClosed
	}
	if in.err != nil {
		err := in.err
		in.mu.Unlock()
		return err
	}
	in.pending++
	in.mu.Unlock()
	select {
	case in.queue <- b:
		return nil
	case <-in.ctx.Done():
		in.settle(0, nil) // the batch never entered the queue
		in.fail(in.ctx.Err())
		return in.ctx.Err()
	}
}

// Producer returns a new buffered emitter backed by this ingester. Give
// each emitting goroutine its own producer; buffers are per-producer, so
// producers never contend with each other until a buffer fills.
func (in *Ingester) Producer() *Producer {
	p := &Producer{in: in}
	p.reset()
	in.mu.Lock()
	in.producers = append(in.producers, p)
	in.mu.Unlock()
	return p
}

// Flush pushes every producer's buffer into the queue and blocks until
// all batches enqueued so far are written (or until the first error).
// Facts emitted before Flush is called are visible in the store when it
// returns nil. Flush must not race with Close.
func (in *Ingester) Flush() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return ErrClosed
	}
	producers := append([]*Producer(nil), in.producers...)
	in.mu.Unlock()
	for _, p := range producers {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	return in.wait()
}

// wait blocks until no batches are pending or an error is latched.
func (in *Ingester) wait() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.pending > 0 && in.err == nil {
		in.cond.Wait()
	}
	return in.err
}

// Close flushes every producer, shuts the drainers down, and returns the
// first error (nil on a clean run). Close is idempotent; Emit after Close
// returns ErrClosed. Close must not race with concurrent Emit calls.
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		err := in.err
		in.mu.Unlock()
		return err
	}
	producers := append([]*Producer(nil), in.producers...)
	in.mu.Unlock()
	var flushErr error
	for _, p := range producers {
		if err := p.Flush(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	close(in.queue)
	in.drainers.Wait()
	in.fail(flushErr)
	return in.Err()
}

// Producer is one buffered emitter. Emit and Flush are safe for
// concurrent use, but the intended shape is one producer per goroutine.
type Producer struct {
	in    *Ingester
	mu    sync.Mutex
	ts    []rdf.Triple
	infos []core.FactInfo
}

func (p *Producer) reset() {
	size := p.in.opt.BatchSize
	p.ts = make([]rdf.Triple, 0, size)
	p.infos = make([]core.FactInfo, 0, size)
}

// Emit buffers one fact, handing the buffer to the drain queue when full.
// It returns the ingester's sticky error, if any: once a write fails or
// the context is cancelled, producers learn on their next Emit.
func (p *Producer) Emit(t rdf.Triple, info core.FactInfo) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.in.state(); err != nil {
		return err
	}
	p.ts = append(p.ts, t)
	p.infos = append(p.infos, info)
	if len(p.ts) >= p.in.opt.BatchSize {
		return p.flushLocked()
	}
	return nil
}

// Flush hands the current buffer to the drain queue without waiting for
// the write. Use Ingester.Flush for the visibility barrier.
func (p *Producer) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Producer) flushLocked() error {
	if len(p.ts) == 0 {
		return p.in.Err()
	}
	b := batch{ts: p.ts, infos: p.infos}
	p.reset()
	return p.in.enqueue(b)
}
