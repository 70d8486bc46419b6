package experiments

// E16: serving availability under replica faults. The web-scale serving
// story (§4) only holds if the tier keeps answering while individual
// replicas misbehave, so this experiment drives point lookups through
// the shardkb client with a faultkb proxy in front of every replica and
// sweeps the injected fault rate (connection drops + 500s, split evenly)
// over the shard-count x replica-count grid. The availability column is
// the point: with one replica per shard, faults that survive the retry
// budget surface to clients; with two, retries fail over and
// availability returns to ~1 at the cost of extra RPCs.

import (
	"context"
	"net/http/httptest"
	"strings"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/eval"
	"kbharvest/internal/faultkb"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

// E16FaultTolerance measures availability and tail latency of the
// replicated tier under injected fault rates.
func E16FaultTolerance() []*eval.Table {
	merged, _ := ServingWorkload(119)
	all := merged.All()

	seen := map[string]bool{}
	var points []core.Pattern
	for _, t := range all {
		if seen[t.S.Value] {
			continue
		}
		seen[t.S.Value] = true
		points = append(points, core.Pattern{S: core.PTerm(t.S), P: core.PVar("p"), O: core.PVar("o")})
		if len(points) == 200 {
			break
		}
	}

	tab := eval.NewTable("E16: serving availability under injected replica faults",
		"shards", "replicas", "fault-rate", "queries", "availability", "p50-us", "p99-us", "retry/query")
	ctx := context.Background()
	for _, n := range []int{1, 4} {
		stores := make([]*core.Store, n)
		for i := range stores {
			stores[i] = core.NewStore()
		}
		for _, t := range all {
			stores[shardkb.TripleShard(t, n)].Add(t)
		}
		for _, r := range []int{1, 2} {
			shards := make([]string, n)
			var injectors []*faultkb.Injector
			var servers []*httptest.Server
			for i := 0; i < n; i++ {
				urls := make([]string, r)
				for j := 0; j < r; j++ {
					backend := httptest.NewServer(serve.NewServer(stores[i], serve.Options{Timeout: 5 * time.Second}))
					in := faultkb.New(int64(1000 + 10*i + j))
					proxy := httptest.NewServer(faultkb.NewProxy(backend.URL, in, nil))
					servers = append(servers, backend, proxy)
					urls[j] = proxy.URL
					injectors = append(injectors, in)
				}
				shards[i] = strings.Join(urls, "|")
			}
			client, err := shardkb.New(shards, shardkb.Options{
				Timeout: 5 * time.Second,
				// Fast retries and no breakers keep the sweep about one
				// variable: how far the retry budget stretches redundancy.
				RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
				BreakerThreshold: -1,
			})
			if err != nil {
				panic("E16: " + err.Error())
			}

			for _, rate := range []float64{0, 0.05, 0.20} {
				for _, in := range injectors {
					in.SetPlan(faultkb.Plan{DropRate: rate / 2, ErrorRate: rate / 2})
				}
				before := client.Stats()
				var lat serve.LatencyHistogram
				ok := 0
				for _, q := range points {
					q0 := time.Now()
					if _, err := client.Pattern(ctx, q, 0); err == nil {
						ok++
						lat.Observe(time.Since(q0))
					}
				}
				after := client.Stats()
				sum := lat.Summary()
				tab.AddRow(n, r, rate, len(points),
					eval.Accuracy(ok, len(points)), sum.P50US, sum.P99US,
					float64(after.Retries-before.Retries)/float64(len(points)))
			}
			for _, s := range servers {
				s.Close()
			}
		}
	}
	return []*eval.Table{tab}
}
