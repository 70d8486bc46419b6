package main

// The router's HTTP shell: /query, /statsz, /healthz, /readyz. It holds
// no query engine of its own. A single pattern goes to shardkb's
// Client.Pattern (one pinned RPC or one scatter, answered from the
// shards' result caches); a conjunction goes to Client.Join, the
// set-at-a-time bind join that costs about shards x (1 + steps) RPCs.

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

type router struct {
	client  *shardkb.Client
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
	ctx := r.Context()
	if rt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.timeout)
		defer cancel()
	}
	t0 := time.Now()
	var (
		single *shardkb.Result
		rows   shardkb.Rows
		err    error
	)
	if len(patterns) == 1 {
		single, err = rt.client.Pattern(ctx, patterns[0], req.Limit)
	} else {
		rows, err = rt.client.Join(ctx, patterns, req.Limit)
	}
	took := time.Since(t0)
	rt.lat.Observe(took)
	rt.queries.Add(1)
	if err != nil {
		serve.WriteQueryError(w, err)
		return
	}
	// Both branches leave through serve's one /query encoder.
	var (
		vars, cells []string
		n           int
		partial     bool
	)
	if single != nil {
		vars, cells = serve.BindingCells(patterns, single.Bindings)
		n, partial = len(single.Bindings), single.Partial
	} else {
		for _, v := range rows.Vars {
			vars = append(vars, string(v))
		}
		cells, n, partial = rows.Cells, rows.N, rows.Partial
	}
	if partial {
		rt.partialAnswers.Add(1)
	}
	serve.WriteRows(w, vars, cells, n, false, took, partial)
}

// routerStatsz is the router's GET /statsz reply: router-level query
// latency plus the scatter client's fan-out, fast-path, per-shard
// latency, and partial-failure counters.
type routerStatsz struct {
	Queries        uint64             `json:"queries"`
	PartialAnswers uint64             `json:"partial_answers"` // queries served with partial results
	Latency        serve.LatencyStats `json:"latency"`
	FastPathRate   float64            `json:"fast_path_rate"`
	Client         shardkb.Stats      `json:"client"`
}

func (rt *router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	cs := rt.client.Stats()
	serve.WriteJSON(w, http.StatusOK, routerStatsz{
		Queries:        rt.queries.Load(),
		PartialAnswers: rt.partialAnswers.Load(),
		Latency:        rt.lat.Summary(),
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
