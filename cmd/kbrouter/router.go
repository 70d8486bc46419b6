package main

// The router's HTTP shell: /query, /statsz, /healthz, /readyz. It holds
// no query engine of its own. A single pattern goes to shardkb's
// Client.Pattern (one pinned RPC or one scatter, answered from the
// shards' result caches); a conjunction goes to Client.Join, the
// set-at-a-time bind join that costs about shards x (1 + steps) RPCs.
//
// In front of both sits the router's result cache, a qcache.LRU of
// encoded replies: the head serve.AppendRowsHead wrote, without the
// "cached" and "took_us" members a hit writes afresh. An entry carries
// the tier's Generation read before the evaluation that filled it and is
// served only while that is unchanged, that is while no replica has
// answered with an epoch the router had not seen from it since. A hit is
// therefore as fresh as the last reply each replica gave, and costs no
// shard RPC. Partial replies and errors are never cached.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/qcache"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

type router struct {
	client  *shardkb.Client
	cache   *qcache.LRU[cachedReply]
	timeout time.Duration
	mux     *http.ServeMux

	lat            serve.LatencyHistogram
	queries        atomic.Uint64
	partialAnswers atomic.Uint64
	draining       atomic.Bool
}

// cachedReply is one entry of the router's result cache.
type cachedReply struct {
	gen  uint64 // client.Generation() before the evaluation
	head []byte // the reply up to "cached" (serve.AppendRowsHead)
}

// SetDraining flips the router in or out of drain mode: while draining,
// /readyz answers 503 so a fronting load balancer stops routing here
// before the listener closes. In-flight queries still complete.
func (rt *router) SetDraining(v bool) { rt.draining.Store(v) }

func newRouter(client *shardkb.Client, timeout time.Duration) *router {
	rt := &router{
		client: client,
		// qcache's default size, 16 x 256 replies.
		cache: qcache.NewLRU(qcache.Options{}, func(e cachedReply) bool {
			return e.gen == client.Generation()
		}),
		timeout: timeout,
		mux:     http.NewServeMux(),
	}
	rt.mux.HandleFunc("/query", rt.handleQuery)
	rt.mux.HandleFunc("/statsz", rt.handleStatsz)
	rt.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	return rt
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *router) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, patterns := serve.DecodePatterns(w, r)
	if req == nil {
		return
	}
	t0 := time.Now()
	key := qcache.Key(patterns, req.Limit)
	e, cached := rt.cache.Get(key)
	var (
		partial bool
		err     error
	)
	if !cached {
		e, partial, err = rt.evaluate(r.Context(), patterns, req.Limit)
		if err == nil && !partial {
			rt.cache.Put(key, e)
		}
	}
	took := time.Since(t0)
	rt.lat.Observe(took)
	rt.queries.Add(1)
	if err != nil {
		serve.WriteQueryError(w, err)
		return
	}
	if partial {
		rt.partialAnswers.Add(1)
	}
	serve.WriteRows(w, e.head, serve.AppendRowsTail(nil, cached, took.Microseconds(), partial))
}

// evaluate answers a query from the shards. The reply carries the tier
// generation read before any shard is asked, so a replica whose epoch
// changes meanwhile leaves it stale from the start.
func (rt *router) evaluate(ctx context.Context, patterns []core.Pattern, limit int) (cachedReply, bool, error) {
	e := cachedReply{gen: rt.client.Generation()}
	if rt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.timeout)
		defer cancel()
	}
	// Both branches leave through serve's one /query encoder.
	var (
		vars, cells []string
		n           int
		partial     bool
		err         error
	)
	if len(patterns) == 1 {
		var res *shardkb.Result
		if res, err = rt.client.Pattern(ctx, patterns[0], limit); err == nil {
			vars, cells = serve.BindingCells(patterns, res.Bindings)
			n, partial = len(res.Bindings), res.Partial
		}
	} else {
		var rows shardkb.Rows
		if rows, err = rt.client.Join(ctx, patterns, limit); err == nil {
			for _, v := range rows.Vars {
				vars = append(vars, string(v))
			}
			cells, n, partial = rows.Cells, rows.N, rows.Partial
		}
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) {
			// The request's deadline cut the shards off: answer 504 (or
			// 499), not 500 for the shard failures it caused.
			err = fmt.Errorf("%w: %v", cerr, err)
		}
		return e, false, err
	}
	e.head = serve.AppendRowsHead(nil, vars, cells, n)
	return e, partial, nil
}

// routerStatsz is the router's GET /statsz reply: router-level query
// latency, the result cache in kbserve's shape, plus the scatter
// client's fan-out, fast-path, per-shard latency, and partial-failure
// counters.
type routerStatsz struct {
	Queries        uint64             `json:"queries"`
	PartialAnswers uint64             `json:"partial_answers"` // queries served with partial results
	Latency        serve.LatencyStats `json:"latency"`
	Cache          serve.CacheStats   `json:"cache"`
	FastPathRate   float64            `json:"fast_path_rate"`
	Client         shardkb.Stats      `json:"client"`
}

func (rt *router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	cs, qs := rt.client.Stats(), rt.cache.Stats()
	serve.WriteJSON(w, http.StatusOK, routerStatsz{
		Queries:        rt.queries.Load(),
		PartialAnswers: rt.partialAnswers.Load(),
		Latency:        rt.lat.Summary(),
		Cache:          serve.CacheStats{Stats: qs, HitRate: qs.HitRate()},
		FastPathRate:   cs.FastPathRate(),
		Client:         cs,
	})
}

// routerReady is the router's GET /readyz reply.
type routerReady struct {
	Shards int    `json:"shards"`
	Facts  int    `json:"facts"`
	Error  string `json:"error,omitempty"`
}

// handleReadyz health-checks every shard: the router is ready only when
// each shard answers /readyz with a loaded store, so a fronting load
// balancer never routes to a tier with an empty or still-loading shard.
// The replies also show the router each shard's current epoch.
func (rt *router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable,
			routerReady{Shards: rt.client.NumShards(), Error: "draining"})
		return
	}
	replies, err := rt.client.Ready(r.Context())
	resp := routerReady{Shards: rt.client.NumShards()}
	for _, rr := range replies {
		if rr != nil {
			resp.Facts += rr.Facts
		}
	}
	if err != nil {
		resp.Error = err.Error()
		serve.WriteJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}
