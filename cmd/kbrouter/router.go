package main

// The router's HTTP shell: /query, /statsz, /healthz, /readyz. It holds
// no query engine of its own: every query goes to shardkb's Client.Join,
// the set-at-a-time bind join that costs about shards x (1 + steps) RPCs.
// A single pattern is a join of one step — one pinned RPC or one /bind
// per shard, and no /estimate round — so the router sends its shards
// only /bind and /estimate.
//
// In front of it sits the router's result cache, a qcache.LRU of 16 x 256
// encoded replies: the head serve.AppendRowsHead wrote, without the
// "cached" and "took_us" members a hit writes afresh. Its generation is
// the client's Generation, read before the evaluation that fills an
// entry, and it is kbserve's rule over the whole tier: an entry is served
// while no replica has answered with an epoch the router had not seen
// from it since. A hit is therefore as fresh as the last reply each
// replica gave, and costs no shard RPC. Partial replies and errors are
// never cached.

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
	cache   *qcache.LRU[[]byte] // reply heads (see the file comment)
	timeout time.Duration
	mux     *http.ServeMux

	lat            serve.LatencyHistogram
	queries        atomic.Uint64
	partialAnswers atomic.Uint64
	draining       atomic.Bool
}

// SetDraining flips the router in or out of drain mode: while draining,
// /readyz answers 503 so a fronting load balancer stops routing here
// before the listener closes. In-flight queries still complete.
func (rt *router) SetDraining(v bool) { rt.draining.Store(v) }

func newRouter(client *shardkb.Client, timeout time.Duration) *router {
	rt := &router{
		client:  client,
		cache:   qcache.NewLRU[[]byte](qcache.Options{}, client.Generation),
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
	head, cached := rt.cache.Get(key)
	var (
		partial bool
		err     error
	)
	if !cached {
		// Read before any shard is asked: a replica whose epoch changes
		// meanwhile leaves the entry stale from the start.
		gen := rt.client.Generation()
		head, partial, err = rt.evaluate(r.Context(), patterns, req.Limit)
		if err == nil && !partial {
			rt.cache.Put(key, gen, head)
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
	serve.WriteRows(w, head, serve.AppendRowsTail(nil, cached, took.Microseconds(), partial))
}

// evaluate answers a query from the shards with the reply head up to
// "cached" and whether it is partial.
func (rt *router) evaluate(ctx context.Context, patterns []core.Pattern, limit int) ([]byte, bool, error) {
	if rt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.timeout)
		defer cancel()
	}
	rows, err := rt.client.Join(ctx, patterns, limit)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) {
			// The request's deadline cut the shards off: answer 504 (or
			// 499), not 500 for the shard failures it caused.
			err = fmt.Errorf("%w: %v", cerr, err)
		}
		return nil, false, err
	}
	vars := make([]string, len(rows.Vars))
	for i, v := range rows.Vars {
		vars[i] = string(v)
	}
	return serve.AppendRowsHead(nil, vars, rows.Cells, rows.N), rows.Partial, nil
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
