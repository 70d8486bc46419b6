package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/qcache"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

// The read ladder replays one request sequence, single-threaded, through
// each layer's public functions from the top rung down:
//
//	serve.socket   loopback HTTP to an httptest server around serve.Server
//	serve.handler  Server.ServeHTTP into a ResponseRecorder
//	qcache.query   Cache.Query
//	core.query     Store.QueryFunc (with core.parse and core.estimate beside it)
//
// Every rung starts from fresh state (its own server or cache over the
// same store), so the cache takes the same hits and misses on each and
// a layer's self time is its rung minus the rung below for the same
// request. The shardkb rung replays the sequence's patterns against two
// in-process shard servers.

// serveTimeout is kbserve's default per-request query timeout.
const serveTimeout = 2 * time.Second

// shardkbRequests bounds the shardkb rung: unbound patterns scatter
// thousands of rows each.
const shardkbRequests = 500

type ladder struct {
	ctx   context.Context
	st    *core.Store
	orc   *oracle
	ids   []int // the replayed requests
	tr    *tracer
	m     map[string]float64
	tally *tally

	// per request, filled rung by rung
	sockOff, sockOn, handler, cache, query []time.Duration
	sockSpan, handlerSpan, cacheSpan       []int
	sockCached, handlerCached, cacheHit    []bool
}

func (l *ladder) q(i int) *query { return l.orc.sp.all[l.ids[i]] }

// checkReply digests a reply body, checks it, and counts the operation.
func (l *ladder) checkReply(i int, rung string, body []byte, err error) observed {
	ob, err := l.orc.judgeReply(l.q(i), body, err)
	l.count(i, rung, err)
	return ob
}

func (l *ladder) checkBindings(i int, rung string, bs []core.Binding, err error) {
	l.count(i, rung, l.orc.judgeBindings(l.q(i), bs, err))
}

func (l *ladder) count(i int, rung string, err error) {
	if err != nil {
		err = fmt.Errorf("%s: request %d: %w", rung, i, err)
	}
	l.tally.add(err)
}

func newServer(st *core.Store) *serve.Server {
	return serve.NewServer(st, serve.Options{Timeout: serveTimeout})
}

// socketRung sends every request to two identical fresh servers, one
// timed with span recording and one without, alternating which goes
// first; the ratio of their medians is the tracing overhead.
func (l *ladder) socketRung() {
	off, on := httptest.NewServer(newServer(l.st)), httptest.NewServer(newServer(l.st))
	defer off.Close()
	defer on.Close()
	cOff, cOn := newCaller(), newCaller()
	defer cOff.close()
	defer cOn.close()
	n := len(l.ids)
	l.sockOff, l.sockOn = make([]time.Duration, n), make([]time.Duration, n)
	l.sockSpan, l.sockCached = make([]int, n), make([]bool, n)
	plain := func(i int) {
		t0 := time.Now()
		body, _, err := cOff.post(l.ctx, off.URL, l.q(i))
		l.sockOff[i] = time.Since(t0)
		l.checkReply(i, "serve.socket", body, err)
	}
	traced := func(i int) {
		var body []byte
		var err error
		t0 := time.Now()
		l.sockSpan[i], _ = l.tr.timed(i, 0, "serve.socket", func() {
			body, _, err = cOn.post(l.ctx, on.URL, l.q(i))
		})
		l.sockOn[i] = time.Since(t0)
		l.sockCached[i] = l.checkReply(i, "serve.socket", body, err).cached
	}
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		if i%2 == 0 {
			plain(i)
			traced(i)
		} else {
			traced(i)
			plain(i)
		}
	}
}

// serveOnce pushes one request through a handler without a socket.
func serveOnce(srv http.Handler, q *query) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(q.body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func (l *ladder) handlerRung() (respBytes int) {
	srv := newServer(l.st)
	n := len(l.ids)
	l.handler, l.handlerSpan, l.handlerCached = make([]time.Duration, n), make([]int, n), make([]bool, n)
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		var rec *httptest.ResponseRecorder
		l.handlerSpan[i], l.handler[i] = l.tr.timed(i, l.sockSpan[i], "serve.handler", func() {
			rec = serveOnce(srv, l.q(i))
		})
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		ob := l.checkReply(i, "serve.handler", rec.Body.Bytes(), err)
		l.handlerCached[i] = ob.cached
		respBytes += ob.payload
	}
	return respBytes
}

func (l *ladder) cacheRung() qcache.Stats {
	c := qcache.New(l.st, qcache.Options{})
	n := len(l.ids)
	l.cache, l.cacheSpan, l.cacheHit = make([]time.Duration, n), make([]int, n), make([]bool, n)
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		q := l.q(i)
		var bs []core.Binding
		var err error
		l.cacheSpan[i], l.cache[i] = l.tr.timed(i, l.handlerSpan[i], "qcache.query", func() {
			bs, l.cacheHit[i], err = c.Query(l.ctx, l.orc.parsed[q.id], q.limit)
		})
		l.checkBindings(i, "qcache.query", bs, err)
	}
	return c.Stats()
}

// evaluate is the core rung's unit of work: parse the wire patterns and
// collect every binding.
func evaluate(ctx context.Context, st *core.Store, q *query) ([]core.Binding, error) {
	pats, err := parsePatterns(q.lines)
	if err != nil {
		return nil, err
	}
	var bs []core.Binding
	err = st.QueryFunc(ctx, pats, q.limit, func(b core.Binding) bool {
		bs = append(bs, b)
		return true
	})
	return bs, err
}

// skeleton is the triple EstimateMatches takes for a pattern: constants
// stay, variables become wildcards.
func skeleton(p core.Pattern) rdf.Triple {
	var t rdf.Triple
	if p.S.Var == "" {
		t.S = p.S.Const
	}
	if p.P.Var == "" {
		t.P = p.P.Const
	}
	if p.O.Var == "" {
		t.O = p.O.Const
	}
	return t
}

func (l *ladder) coreRung() (parse, estimate []time.Duration, rows int) {
	n := len(l.ids)
	l.query = make([]time.Duration, n)
	parse, estimate = make([]time.Duration, n), make([]time.Duration, n)
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		q := l.q(i)
		var pats []core.Pattern
		var bs []core.Binding
		var err error
		_, parse[i] = l.tr.timed(i, l.handlerSpan[i], "core.parse", func() {
			pats, err = parsePatterns(q.lines)
		})
		if err == nil {
			_, l.query[i] = l.tr.timed(i, l.cacheSpan[i], "core.query", func() {
				err = l.st.QueryFunc(l.ctx, pats, q.limit, func(b core.Binding) bool {
					bs = append(bs, b)
					return true
				})
			})
			_, estimate[i] = l.tr.timed(i, 0, "core.estimate", func() {
				for _, p := range pats {
					l.st.EstimateMatches(skeleton(p))
				}
			})
		}
		rows += len(bs)
		l.checkBindings(i, "core.query", bs, err)
	}
	return parse, estimate, rows
}

// allocsPer runs f once and returns the heap objects and bytes it
// allocated per request. Nothing else runs in the process meanwhile.
func (l *ladder) allocsPer(f func()) (objects, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	n := float64(len(l.ids))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// pick returns the microseconds of ds[i] - below[i] (below may be nil)
// for the requests keep accepts.
func pick(ds, below []time.Duration, keep func(i int) bool) []float64 {
	var out []float64
	for i, d := range ds {
		if keep(i) {
			if below != nil {
				d -= below[i]
			}
			out = append(out, micros(d))
		}
	}
	return out
}

func every(int) bool { return true }

// readRungs runs the four rungs top down and derives the per-layer
// numbers from the per-request times.
func (l *ladder) readRungs() {
	n := float64(len(l.ids))
	l.socketRung()
	respBytes := l.handlerRung()
	cs := l.cacheRung()
	parse, estimate, rows := l.coreRung()
	if l.ctx.Err() != nil {
		return
	}
	isJoin := func(i int) bool { return l.q(i).class == "join_full" }
	// A self time subtracts two rungs for the same request, which only
	// means something when both rungs took the same path through the
	// cache. qcache seeds its shard hash per instance, so near capacity
	// the rungs can evict differently; those requests are left out.
	sameAsCache := func(i int) bool { return l.handlerCached[i] == l.cacheHit[i] }
	sameAsHandler := func(i int) bool { return l.sockCached[i] == l.handlerCached[i] }

	m := l.m
	m["core.parse_us"] = medianMicros(parse)
	m["core.query_us"] = medianMicros(l.query)
	m["core.query_p99_us"] = quantile(pick(l.query, nil, every), 0.99)
	m["core.join_full_us"] = median(pick(l.query, nil, isJoin))
	m["core.rows_per_query"] = float64(rows) / n
	m["core.estimate_us"] = medianMicros(estimate)
	m["core.allocs_per_query"], m["core.alloc_bytes_per_query"] = l.allocsPer(func() {
		for i := range l.ids {
			evaluate(l.ctx, l.st, l.q(i))
		}
	})

	m["qcache.query_us"] = medianMicros(l.cache)
	m["qcache.hit_us"] = median(pick(l.cache, nil, func(i int) bool { return l.cacheHit[i] }))
	m["qcache.miss_overhead_us"] = median(pick(l.cache, l.query, func(i int) bool { return !l.cacheHit[i] }))
	m["qcache.hit_ratio"] = cs.HitRate()
	m["qcache.evictions_per_kquery"] = 1000 * float64(cs.Evictions) / n

	m["serve.handler_us"] = medianMicros(l.handler)
	m["serve.handler_self_us"] = median(pick(l.handler, l.cache, sameAsCache))
	m["serve.socket_self_us"] = median(pick(l.sockOff, l.handler, sameAsHandler))
	m["serve.join_full_encode_us"] = median(pick(l.handler, l.cache, func(i int) bool { return isJoin(i) && sameAsCache(i) }))
	m["serve.resp_bytes_per_query"] = float64(respBytes) / n
	srv := newServer(l.st)
	m["serve.allocs_per_query"], _ = l.allocsPer(func() {
		for i := range l.ids {
			serveOnce(srv, l.q(i))
		}
	})
	m["trace.overhead_ratio"] = medianMicros(l.sockOn) / medianMicros(l.sockOff)
}

// partition splits st by subject hash the way kbbuild -shards does.
func partition(st *core.Store, n int) []*core.Store {
	ts := make([][]rdf.Triple, n)
	infos := make([][]core.FactInfo, n)
	st.MatchFunc(rdf.Triple{}, func(id core.FactID, t rdf.Triple) bool {
		s := shardkb.TripleShard(t, n)
		info, _ := st.Info(id)
		ts[s] = append(ts[s], t)
		infos[s] = append(infos[s], info)
		return true
	})
	parts := make([]*core.Store, n)
	for i := range parts {
		parts[i] = core.NewStore()
		parts[i].AddBatchMeta(ts[i], infos[i])
	}
	return parts
}

// shardRung calls the scatter client with every pattern of the first
// shardkbRequests requests, against one in-process server per shard. A
// single-pattern query's result is its answer, so those are checked.
func (l *ladder) shardRung(shards []*core.Store) error {
	urls := make([]string, len(shards))
	for i, st := range shards {
		ts := httptest.NewServer(newServer(st))
		defer ts.Close()
		urls[i] = ts.URL
	}
	client, err := shardkb.New(urls, shardkb.Options{})
	if err != nil {
		return err
	}
	n := len(l.ids)
	if n > shardkbRequests {
		n = shardkbRequests
	}
	var pinned, scatter, estimates []time.Duration
	calls := 0
	before := client.Stats()
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		q := l.q(i)
		pats := l.orc.parsed[q.id]
		for _, p := range pats {
			limit := 0
			if len(pats) == 1 {
				limit = q.limit
			}
			_, isPinned := shardkb.PatternShard(p, len(shards))
			name := "shardkb.scatter"
			if isPinned {
				name = "shardkb.pinned"
			}
			var res *shardkb.Result
			var err error
			_, d := l.tr.timed(i, 0, name, func() { res, err = client.Pattern(l.ctx, p, limit) })
			calls++
			if isPinned {
				pinned = append(pinned, d)
			} else {
				scatter = append(scatter, d)
			}
			if len(pats) == 1 || err != nil {
				var bs []core.Binding
				if res != nil {
					bs = res.Bindings
				}
				l.checkBindings(i, name, bs, err)
			}
		}
	}
	after := client.Stats()
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		var err error
		_, d := l.tr.timed(i, 0, "shardkb.estimates", func() {
			_, err = client.Estimates(l.ctx, l.orc.parsed[l.q(i).id])
		})
		if err != nil {
			return fmt.Errorf("shardkb.estimates: request %d: %w", i, err)
		}
		estimates = append(estimates, d)
	}
	final := client.Stats()
	l.m["shardkb.pinned_us"] = medianMicros(pinned)
	l.m["shardkb.scatter_us"] = medianMicros(scatter)
	l.m["shardkb.estimates_us"] = medianMicros(estimates)
	l.m["shardkb.rpcs_per_call"] = float64(after.RPCs-before.RPCs) / float64(calls)
	l.m["shardkb.retries"] = float64(final.Retries)
	l.m["shardkb.hedges_fired"] = float64(final.HedgesFired)
	return nil
}

// runLadder is the traced run: build the workload's KB in-process with
// kbbuild's options, replay the first n requests of client 0's sequence
// through every rung, and write the spans to traceOut. With a nil env
// no child process is started and the live metrics are left out.
func runLadder(ctx context.Context, e *env, dir string, w workloadDef, seed int64, n int, traceOut string) (*report, error) {
	r := &report{metrics: map[string]float64{}}
	// phase notes how long each part of the traced run took, so a run
	// that outgrows the driver's time limit shows where.
	last := time.Now()
	phases := ""
	phase := func(name string) {
		phases += fmt.Sprintf(" %s %.1fs", name, time.Since(last).Seconds())
		last = time.Now()
	}
	res, err := runPipeline(ctx, w, seed, r)
	if err != nil {
		return r, err
	}
	phase("pipeline")
	st := res.KB
	sp, err := newSpace(st, seed)
	if err != nil {
		return r, err
	}
	orc, err := newOracle(ctx, st, sp)
	if err != nil {
		return r, err
	}
	phase("oracle")
	if err := writeRungs(ctx, st, dir, r.metrics); err != nil {
		return r, err
	}
	phase("writes")
	l := &ladder{ctx: ctx, st: st, orc: orc, ids: sp.newSequence(w, seed, 0, 0).take(n),
		tr: newTracer(), m: r.metrics, tally: &r.tally}
	l.readRungs()
	phase("read rungs")
	if err := l.shardRung(partition(st, 2)); err != nil {
		return r, err
	}
	phase("shardkb")
	if err := ctx.Err(); err != nil {
		return r, err
	}
	if err := l.tr.validate(n); err != nil {
		return r, fmt.Errorf("trace: %w", err)
	}
	r.notef("ladder: %d requests of %s, %d spans", n, w.name, len(l.tr.spans))
	for _, name := range []string{"qcache.miss_overhead_us", "serve.handler_self_us", "serve.socket_self_us"} {
		if r.metrics[name] < 0 {
			r.notef("warning: %s is negative at the median", name)
		}
	}
	if e != nil {
		merged, shards, err := saveTier(st, dir, 2)
		if err != nil {
			return r, err
		}
		if err := liveServe(ctx, e, w, seed, merged, orc, l.ids, r); err != nil {
			return r, err
		}
		phase("live kbserve")
		if err := liveRouter(ctx, e, w, seed, shards, orc, r); err != nil {
			return r, err
		}
		phase("live kbrouter")
	}
	if traceOut != "" {
		if err := l.tr.write(traceOut); err != nil {
			return r, err
		}
		r.notef("spans written to %s", traceOut)
	}
	r.notef("phases:%s", phases)
	return r, nil
}
