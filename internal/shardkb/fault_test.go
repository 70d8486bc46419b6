package shardkb

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/experiments"
	"kbharvest/internal/faultkb"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
)

// startReplicatedShards is startReplicatedTier over testTriples.
func startReplicatedShards(t *testing.T, n, r int) ([]string, [][]*faultkb.Injector) {
	t.Helper()
	return startReplicatedTier(t, testTriples(), n, r, testSeeds)
}

// testSeeds seeds the injector of replica j of shard i.
func testSeeds(i, j int) int64 { return int64(100*i + j) }

// startReplicatedTier partitions triples across n shards, stands r
// replicas behind each (all serving the same partition), and fronts every
// replica with a faultkb proxy seeded by seed(shard, replica). Returns
// the tier as New takes it — one "|"-joined string of proxy URLs per
// shard — and the injector for each replica, indexed [shard][replica].
func startReplicatedTier(t *testing.T, triples []rdf.Triple, n, r int, seed func(shard, replica int) int64) ([]string, [][]*faultkb.Injector) {
	t.Helper()
	stores := partitionStores(triples, n)
	groups := make([]string, n)
	injectors := make([][]*faultkb.Injector, n)
	for i := 0; i < n; i++ {
		urls := make([]string, r)
		for j := 0; j < r; j++ {
			h := serve.NewServer(stores[i], serve.Options{Timeout: time.Second})
			backend := httptest.NewServer(h)
			t.Cleanup(backend.Close)
			in := faultkb.New(seed(i, j))
			proxy := httptest.NewServer(faultkb.NewProxy(backend.URL, in, nil))
			t.Cleanup(proxy.Close)
			urls[j] = proxy.URL
			injectors[i] = append(injectors[i], in)
		}
		groups[i] = strings.Join(urls, "|")
	}
	return groups, injectors
}

// queryAll runs the canonical point lookup and scatter against the tier
// and fails the test on any client-visible error.
func queryAll(t *testing.T, c *Client) {
	t.Helper()
	ctx := context.Background()
	point, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	scatter, _ := core.ParsePattern("?p kb:founded ?c")
	if rows, err := c.Join(ctx, []core.Pattern{point}, 0); err != nil {
		t.Fatalf("point lookup: %v", err)
	} else if rows.N != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", rows.N)
	}
	if rows, err := c.Join(ctx, []core.Pattern{scatter}, 0); err != nil {
		t.Fatalf("scatter: %v", err)
	} else if rows.N != 3 {
		t.Fatalf("scatter returned %d rows, want 3", rows.N)
	}
}

// A dead replica (every request dropped) must be invisible to callers:
// retries fail over to the healthy replica of each shard.
func TestReplicaDownFailover(t *testing.T) {
	groups, injectors := startReplicatedShards(t, 2, 2)
	c := mustClient(t, groups, Options{RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond})
	for i := range injectors {
		injectors[i][0].SetPlan(faultkb.Plan{DropRate: 1})
	}
	for k := 0; k < 10; k++ {
		queryAll(t, c)
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Error("no retries recorded with a dead replica in every shard")
	}
	for i, ss := range st.Shards {
		if ss.Replicas[1].RPCs == 0 {
			t.Errorf("shard %d: surviving replica never used", i)
		}
	}
}

// Torn response bodies (advertised length, truncated stream) are
// transient: the client retries them on another replica rather than
// surfacing a decode error.
func TestTruncatedBodyRetries(t *testing.T) {
	groups, injectors := startReplicatedShards(t, 1, 2)
	c := mustClient(t, groups, Options{RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond})
	injectors[0][0].SetPlan(faultkb.Plan{TruncateRate: 1})
	for k := 0; k < 5; k++ {
		queryAll(t, c)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Error("no retries recorded with a truncating replica")
	}
}

// A flapping replica — dead for a burst of requests, then healthy, then
// dead again — must never surface an error to callers.
func TestFlappingReplica(t *testing.T) {
	groups, injectors := startReplicatedShards(t, 2, 2)
	c := mustClient(t, groups, Options{
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		BreakerThreshold: -1, // keep traffic flowing to the flapper
	})
	for i := range injectors {
		injectors[i][0].SetScript([]faultkb.Step{
			{N: 3, Plan: faultkb.Plan{DropRate: 1}},
			{N: 3, Plan: faultkb.Plan{}},
			{N: 3, Plan: faultkb.Plan{ErrorRate: 1}},
			{N: 1, Plan: faultkb.Plan{}},
		})
	}
	for k := 0; k < 20; k++ {
		queryAll(t, c)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Error("flapping replica produced no retries")
	}
}

// A slow (but healthy) replica is rescued by hedging: the hedge to the
// fast replica wins long before the slow attempt's timeout.
func TestSlowReplicaHedging(t *testing.T) {
	groups, injectors := startReplicatedShards(t, 1, 2)
	c := mustClient(t, groups, Options{
		Timeout:    5 * time.Second,
		HedgeDelay: 10 * time.Millisecond,
	})
	injectors[0][0].SetPlan(faultkb.Plan{Latency: 2 * time.Second})
	point, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	// The first attempt rotates across replicas, so some queries start on
	// the fast replica (no hedge needed) and some on the slow one (hedge
	// rescues them). Every query must finish well under the 2s latency.
	for k := 0; k < 4; k++ {
		t0 := time.Now()
		rows, err := join1(c, point, 0)
		took := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if rows.N != 1 {
			t.Fatalf("got %d rows, want 1", rows.N)
		}
		if took > time.Second {
			t.Errorf("hedged lookup took %v; the hedge should have rescued it", took)
		}
	}
	st := c.Stats()
	if st.HedgesFired == 0 {
		t.Error("no hedges fired against a slow replica")
	}
	if st.HedgesWon == 0 {
		t.Error("no hedge won against a 2s-slow replica")
	}
}

// With every replica of a shard down, the default policy fails the query
// loudly; AllowPartial degrades a scatter to the surviving shards and
// marks the result partial.
func TestAllReplicasDownPartialPolicy(t *testing.T) {
	scatter, _ := core.ParsePattern("?p kb:founded ?c")

	kill := func(injectors [][]*faultkb.Injector, shard int) {
		for _, in := range injectors[shard] {
			in.SetPlan(faultkb.Plan{DropRate: 1})
		}
	}

	strictGroups, strictInj := startReplicatedShards(t, 2, 2)
	strict := mustClient(t, strictGroups, Options{
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, MaxAttempts: 2,
	})
	kill(strictInj, 0)
	if _, err := join1(strict, scatter, 0); err == nil {
		t.Error("scatter with a whole shard down succeeded under the strict policy")
	}

	lenientGroups, lenientInj := startReplicatedShards(t, 2, 2)
	lenient := mustClient(t, lenientGroups, Options{
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, MaxAttempts: 2,
		AllowPartial: true,
	})
	kill(lenientInj, 0)
	rows, err := join1(lenient, scatter, 0)
	if err != nil {
		t.Fatalf("AllowPartial scatter failed: %v", err)
	}
	if !rows.Partial {
		t.Error("result not marked partial with a whole shard down")
	}
	if st := lenient.Stats(); st.PartialFailures == 0 {
		t.Error("partial failure not counted")
	}
}

// A consistently failing replica trips its circuit breaker (shedding
// traffic), and a recovered replica is readmitted after the half-open
// /readyz probe succeeds.
func TestBreakerOpensAndRecovers(t *testing.T) {
	groups, injectors := startReplicatedShards(t, 1, 2)
	c := mustClient(t, groups, Options{
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
	})
	injectors[0][0].SetPlan(faultkb.Plan{ErrorRate: 1})
	for k := 0; k < 10; k++ {
		queryAll(t, c)
	}
	st := c.Stats()
	rep0 := st.Shards[0].Replicas[0]
	if rep0.Breaker != "open" {
		t.Fatalf("failing replica breaker = %q, want open", rep0.Breaker)
	}
	if rep0.BreakerOpens == 0 || st.BreakerTransitions == 0 {
		t.Error("breaker transitions not counted")
	}
	// With the breaker open, traffic stops reaching the bad replica.
	before := rep0.RPCs
	for k := 0; k < 5; k++ {
		queryAll(t, c)
	}
	if after := c.Stats().Shards[0].Replicas[0].RPCs; after != before {
		t.Errorf("open breaker still passed traffic: %d -> %d RPCs", before, after)
	}

	// Heal the replica; after the cooldown the half-open probe readmits it.
	injectors[0][0].SetPlan(faultkb.Plan{})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		queryAll(t, c)
		if s := c.Stats().Shards[0].Replicas[0]; s.Breaker == "closed" && s.RPCs > before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("healed replica never readmitted: breaker = %q",
		c.Stats().Shards[0].Replicas[0].Breaker)
}

// A replica that refuses a request (a 400) has answered, so the refusal
// proves it alive: the call fails at once, without a retry, and the
// replica counts the error, but its breaker stays closed even at a
// threshold of 1 and the next request still reaches it.
func TestRefusedRequestLeavesBreakerClosed(t *testing.T) {
	var hits atomic.Uint64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "refused"})
	}))
	t.Cleanup(stub.Close)
	c := mustClient(t, []string{stub.URL}, Options{BreakerThreshold: 1, RetryBase: time.Millisecond})
	p, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	const calls = 4
	for k := 0; k < calls; k++ {
		if _, err := join1(c, p, 0); err == nil {
			t.Fatalf("call %d: a refused request succeeded", k)
		}
	}
	st := c.Stats()
	rep := st.Shards[0].Replicas[0]
	if rep.Breaker != "closed" || rep.BreakerOpens != 0 || st.BreakerTransitions != 0 {
		t.Errorf("breaker %q after %d refusals: %d opens, %d transitions; want closed, 0, 0",
			rep.Breaker, calls, rep.BreakerOpens, st.BreakerTransitions)
	}
	if rep.Errors != calls || st.Retries != 0 || hits.Load() != calls {
		t.Errorf("%d errors, %d retries, %d requests reached the replica; want %d, 0, %d",
			rep.Errors, st.Retries, hits.Load(), calls, calls)
	}
}

// An oversized reply fails the RPC loudly (non-transient: the other
// replica would send the same giant body) instead of buffering without
// bound or retrying forever.
func TestMaxBodyBytes(t *testing.T) {
	groups, _ := startReplicatedShards(t, 1, 2)
	c := mustClient(t, groups, Options{
		MaxBodyBytes: 16, // below the lookup's 49-byte /bind reply
		RetryBase:    time.Millisecond,
	})
	point, _ := core.ParsePattern("kb:jobs kb:founded ?c")
	_, err := join1(c, point, 0)
	if err == nil {
		t.Fatal("oversized reply succeeded, want error")
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("oversized reply was retried %d times; it is not transient", st.Retries)
	}
}

// Availability under injected faults, at every shard and replica width
// of a small tier: 200 point lookups (one per distinct subject of the
// serving workload) at fault rates 0, 5 % and 20 %, split evenly between
// connection drops and 500s, with fast retries and no breakers so the
// grid measures only how far the retry budget stretches redundancy. The
// injectors are seeded and the lookups sequential, so every count is
// exact: with one replica a fault that outlasts the retry budget reaches
// the caller; with two, retries fail over and every lookup answers.
func TestAvailabilityUnderInjectedFaults(t *testing.T) {
	merged, _ := experiments.ServingWorkload(119)
	triples := merged.All()
	var points []core.Pattern
	seen := map[string]bool{}
	for _, tr := range triples {
		if !seen[tr.S.Value] {
			seen[tr.S.Value] = true
			points = append(points, core.Pattern{S: core.PTerm(tr.S), P: core.PVar("p"), O: core.PVar("o")})
		}
		if len(points) == 200 {
			break
		}
	}
	rates := []float64{0, 0.05, 0.20}
	// want[shards, replicas] holds, per fault rate, the lookups answered
	// and the retries spent.
	type cell struct{ answered, retries int }
	want := map[[2]int][]cell{
		{1, 1}: {{200, 0}, {200, 10}, {191, 38}},
		{1, 2}: {{200, 0}, {200, 10}, {200, 50}},
		{4, 1}: {{200, 0}, {199, 10}, {196, 36}},
		{4, 2}: {{200, 0}, {200, 13}, {200, 48}},
	}
	ctx := context.Background()
	for _, n := range []int{1, 4} {
		for _, r := range []int{1, 2} {
			groups, injectors := startReplicatedTier(t, triples, n, r, func(i, j int) int64 { return int64(1000 + 10*i + j) })
			c := mustClient(t, groups, Options{
				Timeout:   5 * time.Second,
				RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
				BreakerThreshold: -1,
			})
			for k, rate := range rates {
				for _, shard := range injectors {
					for _, in := range shard {
						in.SetPlan(faultkb.Plan{DropRate: rate / 2, ErrorRate: rate / 2})
					}
				}
				before := c.Stats().Retries
				got := cell{}
				for _, q := range points {
					if _, err := c.Join(ctx, []core.Pattern{q}, 0); err == nil {
						got.answered++
					}
				}
				got.retries = int(c.Stats().Retries - before)
				if w := want[[2]int{n, r}][k]; got != w {
					t.Errorf("%d shards x %d replicas at %.0f%% faults: %d/%d answered with %d retries, want %d with %d",
						n, r, 100*rate, got.answered, len(points), got.retries, w.answered, w.retries)
				}
			}
		}
	}
}
