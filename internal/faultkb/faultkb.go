// Package faultkb is the fault-injection harness for the serving tier:
// an HTTP reverse proxy (and a client-side RoundTripper) that injects
// the failure modes real infrastructure produces — added latency, error
// statuses, dropped connections, and truncated response bodies — on a
// deterministic schedule. The shardkb/kbrouter fault tests stand a
// faultkb proxy in front of each kbserve replica to prove that retries,
// hedging, and circuit breakers absorb replica failures, and the E16
// experiment uses it to measure availability and tail latency under
// controlled fault rates.
//
// An Injector decides, per request, which fault (if any) to apply. The
// decision comes from the current Plan — either set directly (SetPlan,
// for tests that flip a replica dead and alive) or advanced through a
// Script of request-counted steps (for flapping-replica schedules).
// Probabilistic plans draw from a seeded generator, so a given seed
// replays the same fault sequence.
package faultkb

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Plan describes the faults to inject. Rates are probabilities in
// [0, 1]; a rate of 1 makes the fault deterministic. Faults are decided
// in order drop > error > truncate (at most one per request), and
// Latency is always added first, so a slow-then-dropped request models a
// hung-then-reset connection.
type Plan struct {
	// Latency is added before the request is forwarded.
	Latency time.Duration
	// ErrorRate is the probability of answering 500 without forwarding.
	ErrorRate float64
	// DropRate is the probability of aborting the connection without
	// writing a response (the client sees EOF / connection reset).
	DropRate float64
	// TruncateRate is the probability of forwarding the request but
	// cutting the response body in half mid-stream, with the original
	// Content-Length still advertised (the client sees unexpected EOF).
	TruncateRate float64
}

// Step is one phase of a Script: the plan applied to the next N requests.
type Step struct {
	N    int
	Plan Plan
}

// Stats counts what an Injector did.
type Stats struct {
	Requests  uint64 `json:"requests"`
	Forwarded uint64 `json:"forwarded"`
	Errors    uint64 `json:"errors"`
	Drops     uint64 `json:"drops"`
	Truncated uint64 `json:"truncated"`
	Delayed   uint64 `json:"delayed"`
}

// Injector makes per-request fault decisions. The zero value injects
// nothing; use New to seed the probabilistic decisions.
type Injector struct {
	mu     sync.Mutex
	plan   Plan
	script []Step
	step   int // requests consumed from script[0]
	rng    *rand.Rand

	requests  atomic.Uint64
	forwarded atomic.Uint64
	errors    atomic.Uint64
	drops     atomic.Uint64
	truncated atomic.Uint64
	delayed   atomic.Uint64
}

// New returns an Injector whose probabilistic decisions replay
// deterministically for a given seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// SetPlan replaces the current plan and clears any script.
func (in *Injector) SetPlan(p Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan = p
	in.script = nil
	in.step = 0
}

// SetScript installs a request-counted schedule: the first step's plan
// applies to its next N requests, then the second, and so on; the last
// step's plan persists once the script is exhausted.
func (in *Injector) SetScript(steps []Step) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.script = append([]Step(nil), steps...)
	in.step = 0
	if len(in.script) > 0 {
		in.plan = in.script[0].Plan
	}
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Requests:  in.requests.Load(),
		Forwarded: in.forwarded.Load(),
		Errors:    in.errors.Load(),
		Drops:     in.drops.Load(),
		Truncated: in.truncated.Load(),
		Delayed:   in.delayed.Load(),
	}
}

// fault is the per-request decision.
type fault int

const (
	faultNone fault = iota
	faultError
	faultDrop
	faultTruncate
)

// decide consumes one request from the schedule and rolls the dice.
func (in *Injector) decide() (fault, time.Duration) {
	in.requests.Add(1)
	in.mu.Lock()
	defer in.mu.Unlock()
	// Advance the script: the current request is charged against the
	// active step; moving past its budget activates the next step.
	if len(in.script) > 0 {
		for in.step >= in.script[0].N && len(in.script) > 1 {
			in.script = in.script[1:]
			in.step = 0
		}
		in.plan = in.script[0].Plan
		in.step++
	}
	p := in.plan
	roll := func(rate float64) bool {
		if rate >= 1 {
			return true
		}
		if rate <= 0 {
			return false
		}
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(1))
		}
		return in.rng.Float64() < rate
	}
	switch {
	case roll(p.DropRate):
		return faultDrop, p.Latency
	case roll(p.ErrorRate):
		return faultError, p.Latency
	case roll(p.TruncateRate):
		return faultTruncate, p.Latency
	}
	return faultNone, p.Latency
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Proxy is an HTTP handler that forwards requests to a target base URL
// through the injector. Stand one in front of each kbserve replica to
// subject that replica to faults; the client under test talks to the
// proxy's URL instead of the replica's.
type Proxy struct {
	in     *Injector
	target string
	client *http.Client
}

// NewProxy builds a proxy forwarding to target (a base URL such as an
// httptest server's). A nil client uses a dedicated default client.
func NewProxy(target string, in *Injector, client *http.Client) *Proxy {
	if client == nil {
		client = &http.Client{}
	}
	return &Proxy{in: in, target: strings.TrimRight(target, "/"), client: client}
}

// Injector returns the proxy's injector, for schedule changes mid-test.
func (p *Proxy) Injector() *Injector { return p.in }

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f, delay := p.in.decide()
	if delay > 0 {
		p.in.delayed.Add(1)
		if !sleepCtx(r.Context(), delay) {
			// The client hung up during injected latency (a hedged or
			// cancelled request): abort without forwarding.
			p.in.drops.Add(1)
			panic(http.ErrAbortHandler)
		}
	}
	switch f {
	case faultDrop:
		p.in.drops.Add(1)
		// Abort the response mid-flight: net/http resets the connection,
		// so the client sees a transport error, not an HTTP status.
		panic(http.ErrAbortHandler)
	case faultError:
		p.in.errors.Add(1)
		http.Error(w, `{"error": "faultkb: injected error"}`, http.StatusInternalServerError)
		return
	}

	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		p.in.drops.Add(1)
		panic(http.ErrAbortHandler)
	}
	defer resp.Body.Close()
	p.in.forwarded.Add(1)

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if f == faultTruncate && len(body) > 1 {
		// Advertise the full length but write only half, then abort: the
		// client's decoder sees an unexpected EOF — a torn response.
		p.in.truncated.Add(1)
		w.WriteHeader(resp.StatusCode)
		w.Write(body[:len(body)/2])
		// Force the headers and partial body onto the wire before the
		// abort resets the connection, so the client sees a torn body
		// rather than a failed request.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// RoundTripper wraps base (nil = http.DefaultTransport) with the same
// injection decisions on the client side — no proxy process needed.
// Latency and drops happen before the request reaches base; truncation
// cuts the returned body stream.
func (in *Injector) RoundTripper(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{in: in, base: base}
}

type faultTransport struct {
	in   *Injector
	base http.RoundTripper
}

// errInjected is the transport error drops surface client-side.
type errInjected struct{}

func (errInjected) Error() string   { return "faultkb: injected connection drop" }
func (errInjected) Timeout() bool   { return false }
func (errInjected) Temporary() bool { return true }

func (t *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f, delay := t.in.decide()
	if delay > 0 {
		t.in.delayed.Add(1)
		if !sleepCtx(r.Context(), delay) {
			return nil, r.Context().Err()
		}
	}
	switch f {
	case faultDrop:
		t.in.drops.Add(1)
		return nil, errInjected{}
	case faultError:
		t.in.errors.Add(1)
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 Internal Server Error",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error": "faultkb: injected error"}`)),
			Request: r,
		}, nil
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	t.in.forwarded.Add(1)
	if f == faultTruncate {
		t.in.truncated.Add(1)
		// Keep the declared Content-Length but cut the stream short so
		// the reader hits an unexpected EOF mid-body.
		n := resp.ContentLength / 2
		if n <= 0 {
			n = 1
		}
		inner := resp.Body
		resp.Body = &truncatedBody{r: io.LimitReader(inner, n), c: inner}
	}
	return resp, nil
}

// truncatedBody ends the stream with ErrUnexpectedEOF instead of a clean
// EOF, the way a torn connection does.
type truncatedBody struct {
	r io.Reader
	c io.Closer
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.c.Close() }
