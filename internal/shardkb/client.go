package shardkb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
)

// ErrPartial marks a query that could not be answered by every shard it
// needed. It is the default outcome of a call with a failed shard;
// Options.AllowPartial degrades it to merged available results with
// Rows.Partial set instead.
var ErrPartial = errors.New("shardkb: partial shard results")

// Options tunes a Client.
type Options struct {
	// Timeout bounds each replica RPC attempt (default 2s).
	Timeout time.Duration
	// MaxInFlight bounds concurrent logical shard RPCs across all
	// in-progress scatters (default 2x the shard count, minimum 4).
	// Retries and hedges ride the slot their logical RPC holds.
	MaxInFlight int
	// AllowPartial merges available results when shards fail instead of
	// failing the query with ErrPartial.
	AllowPartial bool
	// HTTPClient overrides the transport (default http.DefaultClient
	// semantics with no client-level timeout; per-RPC contexts bound it).
	HTTPClient *http.Client

	// MaxAttempts caps physical attempts per logical shard RPC,
	// counting the first try, retries, and hedges. Default: twice the
	// shard's replica count, clamped to [2, 4].
	MaxAttempts int
	// RetryBase is the first retry backoff; attempt k waits
	// jitter(RetryBase << k) capped at RetryMax. Defaults 20ms / 250ms.
	RetryBase time.Duration
	RetryMax  time.Duration

	// HedgeDelay, when > 0, fires one hedge request to the next replica
	// if the first attempt has not replied within the delay; the first
	// reply wins and the loser is cancelled. Requires >= 2 replicas.
	HedgeDelay time.Duration

	// BreakerThreshold opens a replica's circuit breaker after this many
	// consecutive transient failures (default 5; negative disables
	// breakers); a refused request proves the replica alive and does not
	// count. An open replica receives no traffic until a half-open
	// /readyz probe succeeds after BreakerCooldown (default 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// MaxBodyBytes caps a reply body (default 32 MiB); larger replies
	// fail the RPC instead of buffering without bound.
	MaxBodyBytes int64
}

// Result is the outcome of Pattern.
type Result struct {
	// Bindings are the merged rows, in shard order.
	Bindings []core.Binding
	// Partial reports that some shards failed and AllowPartial merged
	// the rest — the result may be missing matches.
	Partial bool
}

// breaker states.
const (
	brClosed int = iota
	brOpen
	brHalfOpen
)

// breakerStateName maps states onto the strings Stats reports.
var breakerStateName = [...]string{"closed", "open", "half-open"}

// breaker is a per-replica circuit breaker: closed → open after a run of
// consecutive failures → half-open probe via /readyz → closed on a
// successful probe (or any successful request), back to open on a failed
// one. It sheds traffic from a dead replica without giving up on it.
type breaker struct {
	mu          sync.Mutex
	state       int
	fails       int
	until       time.Time // while open: when a half-open probe may start
	opens       uint64
	transitions uint64
}

// allow reports whether a request may be sent to this replica; probe
// additionally asks the caller to launch a half-open /readyz probe.
func (b *breaker) allow(threshold int, now time.Time) (ok, probe bool) {
	if threshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return true, false
	case brOpen:
		if now.After(b.until) {
			b.state = brHalfOpen
			b.transitions++
			return false, true
		}
		return false, false
	default: // half-open: the in-flight probe decides
		return false, false
	}
}

func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state != brClosed {
		b.state = brClosed
		b.transitions++
	}
}

func (b *breaker) onFailure(threshold int, cooldown time.Duration, now time.Time) {
	if threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if (b.state == brClosed && b.fails >= threshold) || b.state == brHalfOpen {
		if b.state != brOpen {
			b.opens++
			b.transitions++
		}
		b.state = brOpen
		b.until = now.Add(cooldown)
	}
}

func (b *breaker) snapshot() (state string, opens, transitions uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateName[b.state], b.opens, b.transitions
}

// replica is one kbserve process inside a shard's replica group.
type replica struct {
	url   string
	epoch atomic.Pointer[string] // the last serve.EpochHeader it sent
	rpcs  atomic.Uint64
	errs  atomic.Uint64
	sumUS atomic.Uint64
	br    breaker
}

// group is one shard's replica set.
type group struct {
	replicas []*replica
	next     atomic.Uint64 // rotating start replica for load spreading
}

func (g *group) label() string {
	urls := make([]string, len(g.replicas))
	for i, r := range g.replicas {
		urls[i] = r.url
	}
	return strings.Join(urls, "|")
}

// ReplicaStats is one replica's view in Stats.
type ReplicaStats struct {
	URL          string  `json:"url"`
	RPCs         uint64  `json:"rpcs"`
	Errors       uint64  `json:"errors"`
	MeanUS       float64 `json:"mean_us"`
	Breaker      string  `json:"breaker"`
	BreakerOpens uint64  `json:"breaker_opens"`
}

// ShardStats is one shard group's view in Stats.
type ShardStats struct {
	Replicas []ReplicaStats `json:"replicas"`
}

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	FastPath           uint64       `json:"fast_path"` // bind steps routed by their subject
	Scatters           uint64       `json:"scatters"`  // bind steps sent to every shard
	RPCs               uint64       `json:"rpcs"`      // physical replica RPCs issued
	Retries            uint64       `json:"retries"`
	HedgesFired        uint64       `json:"hedges_fired"`
	HedgesWon          uint64       `json:"hedges_won"`
	BreakerTransitions uint64       `json:"breaker_transitions"`
	PartialFailures    uint64       `json:"partial_failures"`
	Shards             []ShardStats `json:"shards"`
}

// FastPathRate returns the fraction of bind steps routed by their
// subject rather than scattered, 0 when idle.
func (s Stats) FastPathRate() float64 {
	if t := s.FastPath + s.Scatters; t > 0 {
		return float64(s.FastPath) / float64(t)
	}
	return 0
}

// Client runs bind-join steps and estimates against N kbserve shard
// groups, retrying transient failures across each group's replicas with
// backoff, optionally hedging slow requests, and shedding traffic from
// dead replicas through per-replica circuit breakers.
type Client struct {
	groups []*group
	all    []int   // every shard index, the scatter target of gather
	opt    Options // with defaults filled in
	sem    chan struct{}
	gen    atomic.Uint64 // Generation

	fastPath        atomic.Uint64
	scatters        atomic.Uint64
	rpcs            atomic.Uint64
	retries         atomic.Uint64
	hedgesFired     atomic.Uint64
	hedgesWon       atomic.Uint64
	partialFailures atomic.Uint64
}

// drainLimit bounds how much of a leftover response body is drained
// before close to keep the connection reusable; anything longer is
// cheaper to tear down.
const drainLimit = 256 << 10

// New builds a client over the tier. shards[i] names the kbserve
// processes serving partition i — the facts TripleShard assigns to i, so
// the order must match the builder's partitioning — as base URLs joined
// by "|" (all loaded from the same kb.i.nt snapshot); a plain URL is the
// 1-replica case. Whitespace around a URL, a trailing "/" and empty
// replicas are dropped; a shard left with no replica is an error, never
// skipped, because skipping would renumber the partitions after it.
func New(shards []string, opt Options) (*Client, error) {
	if len(shards) == 0 {
		return nil, errors.New("shardkb: no shard URLs")
	}
	groups := make([]*group, len(shards))
	all := make([]int, len(shards))
	for i, spec := range shards {
		g := &group{}
		for _, u := range strings.Split(spec, "|") {
			if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
				g.replicas = append(g.replicas, &replica{url: u})
			}
		}
		if len(g.replicas) == 0 {
			return nil, fmt.Errorf("shardkb: shard %d has no replicas", i)
		}
		groups[i], all[i] = g, i
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Second
	}
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = max(2*len(groups), 4)
	}
	if opt.RetryBase <= 0 {
		opt.RetryBase = 20 * time.Millisecond
	}
	if opt.RetryMax <= 0 {
		opt.RetryMax = 250 * time.Millisecond
	}
	if opt.BreakerThreshold == 0 {
		opt.BreakerThreshold = 5
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = time.Second
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 32 << 20
	}
	if opt.HTTPClient == nil {
		opt.HTTPClient = &http.Client{}
	}
	return &Client{groups: groups, all: all, opt: opt, sem: make(chan struct{}, opt.MaxInFlight)}, nil
}

// NumShards returns the shard (replica group) count.
func (c *Client) NumShards() int { return len(c.groups) }

// Generation counts the epoch changes the client has observed. It
// advances whenever a replica answers 200 with an epoch
// (serve.EpochHeader) other than the last one it stated — its first
// reply, a reply after a write, a reply from a new process — and on every
// 200 reply that states none. A result computed while Generation stayed
// put is as fresh as the last reply, or /readyz, the client saw from
// each replica; kbrouter's result cache is validated by it.
func (c *Client) Generation() uint64 { return c.gen.Load() }

// sawEpoch records the epoch a replica stated on a 200 reply.
func (c *Client) sawEpoch(rep *replica, h http.Header) {
	epoch := h.Get(serve.EpochHeader)
	if last := rep.epoch.Load(); epoch != "" && last != nil && *last == epoch {
		return
	}
	stated := epoch // allocated only here, on a change
	rep.epoch.Store(&stated)
	c.gen.Add(1)
}

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	s := Stats{
		FastPath:        c.fastPath.Load(),
		Scatters:        c.scatters.Load(),
		RPCs:            c.rpcs.Load(),
		Retries:         c.retries.Load(),
		HedgesFired:     c.hedgesFired.Load(),
		HedgesWon:       c.hedgesWon.Load(),
		PartialFailures: c.partialFailures.Load(),
		Shards:          make([]ShardStats, len(c.groups)),
	}
	for i, g := range c.groups {
		ss := ShardStats{Replicas: make([]ReplicaStats, len(g.replicas))}
		for j, rep := range g.replicas {
			rs := ReplicaStats{URL: rep.url, RPCs: rep.rpcs.Load(), Errors: rep.errs.Load()}
			if rs.RPCs > 0 {
				rs.MeanUS = float64(rep.sumUS.Load()) / float64(rs.RPCs)
			}
			var trans uint64
			rs.Breaker, rs.BreakerOpens, trans = rep.br.snapshot()
			s.BreakerTransitions += trans
			ss.Replicas[j] = rs
		}
		s.Shards[i] = ss
	}
	return s
}

// attempt is the outcome of one physical replica RPC.
type attempt struct {
	rep       *replica
	hedge     bool
	data      []byte
	err       error
	transient bool
}

// roundTrip issues one physical RPC to a replica under the per-attempt
// timeout, returning the full (bounded) response body.
func (c *Client) roundTrip(ctx context.Context, rep *replica, path string, body []byte) ([]byte, error, bool) {
	rctx, cancel := context.WithTimeout(ctx, c.opt.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err, false
	}
	hreq.Header.Set("Content-Type", "application/json")

	c.rpcs.Add(1)
	rep.rpcs.Add(1)
	t0 := time.Now()
	resp, err := c.opt.HTTPClient.Do(hreq)
	rep.sumUS.Add(uint64(time.Since(t0).Microseconds()))
	if err != nil {
		if ctx.Err() != nil {
			// The logical call is over (parent cancelled, or another
			// replica already won a hedge race): not a replica failure.
			return nil, ctx.Err(), false
		}
		return nil, err, true // connection errors and attempt timeouts are transient
	}
	defer func() {
		// Drain any unread remainder (bounded) before close so the
		// keep-alive connection goes back to the pool instead of being
		// torn down after every response.
		io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		resp.Body.Close()
	}()
	// Sized from Content-Length when the shard declared one, so a large
	// reply is read into one allocation instead of a doubling series.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), c.opt.MaxBodyBytes+1)+bytes.MinRead))
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, c.opt.MaxBodyBytes+1))
	data := buf.Bytes()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), false
		}
		return nil, fmt.Errorf("read response: %w", err), true // torn body
	}
	if int64(len(data)) > c.opt.MaxBodyBytes {
		// Not transient: any replica would send the same oversized body.
		return nil, fmt.Errorf("response body too large (> %d bytes)", c.opt.MaxBodyBytes), false
	}
	if resp.StatusCode != http.StatusOK {
		transient := resp.StatusCode >= 500 ||
			resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusRequestTimeout
		var e serve.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error), transient
		}
		return nil, fmt.Errorf("status %d", resp.StatusCode), transient
	}
	c.sawEpoch(rep, resp.Header)
	return data, nil, false
}

// readyz fetches one replica's /readyz under the per-attempt timeout;
// any error means the replica is unreachable or not serving a loaded
// snapshot.
func (c *Client) readyz(ctx context.Context, rep *replica) (*serve.ReadyResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, c.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rr serve.ReadyResponse
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err == nil {
		err = json.Unmarshal(data, &rr)
	}
	if err != nil {
		return nil, fmt.Errorf("decode /readyz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("not ready (status %d, %d facts)", resp.StatusCode, rr.Facts)
	}
	c.sawEpoch(rep, resp.Header)
	return &rr, nil
}

// probe launches the half-open /readyz probe that decides whether an
// open breaker may close: a ready reply restores the replica to service,
// any failure re-opens it for another cooldown.
func (c *Client) probe(rep *replica) {
	go func() {
		if _, err := c.readyz(context.Background(), rep); err == nil {
			rep.br.onSuccess()
		} else {
			rep.br.onFailure(c.opt.BreakerThreshold, c.opt.BreakerCooldown, time.Now())
		}
	}()
}

// backoff returns the jittered exponential delay before retry number
// `made` (1-based count of attempts already made).
func (c *Client) backoff(made int) time.Duration {
	d := c.opt.RetryBase << (made - 1)
	if d > c.opt.RetryMax || d <= 0 {
		d = c.opt.RetryMax
	}
	// Full jitter over [d/2, d): concurrent retries against a struggling
	// replica spread out instead of stampeding in lockstep.
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half))
}

// call executes one logical RPC against a shard's replica group and
// returns the winning reply body: the first attempt goes to the group's
// next replica in rotation, transient failures retry on the following
// replicas with jittered exponential backoff, a hedge may race a second
// replica when the first is slow (first reply wins, the loser's context
// is cancelled), and every outcome feeds the per-replica circuit
// breakers.
func (c *Client) call(ctx context.Context, shard int, path string, body []byte) ([]byte, error) {
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	g := c.groups[shard]

	// Candidate replicas in rotation order, filtered by breaker state.
	// A breaker whose cooldown just expired gets its half-open /readyz
	// probe launched here; until a probe succeeds the replica stays out
	// of the candidate set.
	start := int(g.next.Add(1))
	now := time.Now()
	order := make([]*replica, 0, len(g.replicas))
	for i := range g.replicas {
		rep := g.replicas[(start+i)%len(g.replicas)]
		ok, probe := rep.br.allow(c.opt.BreakerThreshold, now)
		if probe {
			c.probe(rep)
		}
		if ok {
			order = append(order, rep)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("shardkb: shard %d (%s): circuit breakers open on all %d replicas",
			shard, g.label(), len(g.replicas))
	}
	maxAttempts := c.opt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = min(2*len(g.replicas), 4) // >= 2: a group has a replica
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt, maxAttempts)
	launched, inflight := 0, 0
	launch := func(hedge bool) {
		rep := order[launched%len(order)]
		launched++
		inflight++
		go func() {
			data, err, transient := c.roundTrip(cctx, rep, path, body)
			results <- attempt{rep: rep, hedge: hedge, data: data, err: err, transient: transient}
		}()
	}
	launch(false)

	var hedgeCh <-chan time.Time
	if c.opt.HedgeDelay > 0 && len(order) > 1 && maxAttempts > 1 {
		ht := time.NewTimer(c.opt.HedgeDelay)
		defer ht.Stop()
		hedgeCh = ht.C
	}
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	var retryCh <-chan time.Time

	var fails []string
	for inflight > 0 || retryCh != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil
			if launched < maxAttempts {
				c.hedgesFired.Add(1)
				launch(true)
			}
		case <-retryCh:
			retryCh = nil
			if launched < maxAttempts {
				c.retries.Add(1)
				launch(false)
			}
		case a := <-results:
			inflight--
			if a.err == nil {
				a.rep.br.onSuccess()
				if a.hedge {
					c.hedgesWon.Add(1)
				}
				// First reply wins: the deferred cancel stops any slower
				// attempt still in flight.
				return a.data, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fails = append(fails, fmt.Sprintf("%s: %v", a.rep.url, a.err))
			a.rep.errs.Add(1)
			if !a.transient {
				// A refusal (a 4xx, an oversized body) proves the
				// replica alive, and any replica would answer the same:
				// no retry, and nothing against its breaker.
				return nil, fmt.Errorf("shardkb: shard %d: %s", shard, strings.Join(fails, "; "))
			}
			a.rep.br.onFailure(c.opt.BreakerThreshold, c.opt.BreakerCooldown, time.Now())
			if launched < maxAttempts && retryCh == nil {
				retryTimer = time.NewTimer(c.backoff(launched))
				retryCh = retryTimer.C
			}
		}
	}
	return nil, fmt.Errorf("shardkb: shard %d: %s", shard, strings.Join(fails, "; "))
}

// gather runs fn once for every listed shard group — inline for a single
// group, so the pinned fast path pays no goroutine, concurrently otherwise
// — and returns the failures in shard order, each naming its shard. What
// a failure costs the call is the caller's policy (see partialErr).
func (c *Client) gather(shards []int, fn func(shard int) error) (failed []string) {
	errs := make([]error, len(shards))
	if len(shards) == 1 {
		errs[0] = fn(shards[0])
	} else {
		var wg sync.WaitGroup
		for k, shard := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = fn(shard)
			}()
		}
		wg.Wait()
	}
	for k, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("shard %d (%s): %v", shards[k], c.groups[shards[k]].label(), err))
		}
	}
	return failed
}

// partialErr applies the partial-failure policy to a gather's failures:
// nil when every shard answered or AllowPartial tolerates the gaps.
func (c *Client) partialErr(failed []string) error {
	if len(failed) == 0 || c.opt.AllowPartial {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrPartial, strings.Join(failed, "; "))
}

// Pattern answers one triple pattern as a one-step Join and returns its
// rows as bindings. limit caps the merged row count (0 = all).
func (c *Client) Pattern(ctx context.Context, p core.Pattern, limit int) (*Result, error) {
	rows, err := c.Join(ctx, []core.Pattern{p}, limit)
	if err != nil {
		return nil, err
	}
	res := &Result{Bindings: make([]core.Binding, rows.N), Partial: rows.Partial}
	w := len(rows.Vars)
	for i := range res.Bindings {
		res.Bindings[i] = make(core.Binding, w)
		for j, v := range rows.Vars {
			// Bind has checked every cell (checkWireTerm): it parses.
			res.Bindings[i][v], _ = rdf.ParseTerm(rows.Cells[i*w+j])
		}
	}
	return res, nil
}

// Estimates returns, for each pattern, the sum of per-shard planner
// estimates — the scatter-aware analogue of core.Store.EstimateMatches
// the router orders joins by. Shard failures follow the partial policy:
// by default the call fails; with AllowPartial the failed shard's
// contribution is simply missing (estimates count the reachable shards'
// matches only).
func (c *Client) Estimates(ctx context.Context, patterns []core.Pattern) ([]int, error) {
	lines := make([]string, len(patterns))
	for i, p := range patterns {
		lines[i] = FormatPattern(p)
	}
	body := append(serve.AppendJSONStrings([]byte(`{"patterns":`), lines), '}')
	replies := make([][]int, len(c.groups))
	failed := c.gather(c.all, func(shard int) error {
		data, err := c.call(ctx, shard, "/estimate", body)
		if err != nil {
			return err
		}
		var resp serve.EstimateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("decode /estimate reply: %w", err)
		}
		if len(resp.Estimates) != len(patterns) {
			return fmt.Errorf("returned %d estimates for %d patterns", len(resp.Estimates), len(patterns))
		}
		replies[shard] = resp.Estimates
		return nil
	})
	if err := c.partialErr(failed); err != nil {
		return nil, err
	}
	sums := make([]int, len(patterns))
	for _, ests := range replies {
		for j, e := range ests {
			sums[j] += e
		}
	}
	return sums, nil
}

// Ready health-checks the tier: a shard group is ready when at least one
// of its replicas answers /readyz with a loaded snapshot (replicas of a
// group serve the same partition). It returns per-shard readiness (nil
// entries for groups with no ready replica) and an error naming every
// such group — under either partial policy, a tier with a dark partition
// is not ready.
func (c *Client) Ready(ctx context.Context) ([]*serve.ReadyResponse, error) {
	replies := make([]*serve.ReadyResponse, len(c.groups))
	failed := c.gather(c.all, func(shard int) error {
		var fails []string
		for _, rep := range c.groups[shard].replicas {
			rr, err := c.readyz(ctx, rep)
			if err == nil {
				replies[shard] = rr
				return nil
			}
			fails = append(fails, fmt.Sprintf("%s: %v", rep.url, err))
		}
		return errors.New(strings.Join(fails, "; "))
	})
	if len(failed) > 0 {
		return replies, fmt.Errorf("shardkb: %s", strings.Join(failed, "; "))
	}
	return replies, nil
}
