package main

import (
	"context"
	"fmt"
	"path/filepath"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

// The live rungs look at the processes from outside: one client, so
// counters read before and after a request belong to that request.

// routerRequests is the length of the replay through kbrouter; one
// join_full costs it about a thousand shard RPCs.
const routerRequests = 400

// probes is how many queries of a class the router's per-class
// latencies are taken over.
const probes = 100

// serveStatsz is kbserve's GET /statsz reply.
type serveStatsz serve.StatszResponse

// hitRatioSince is the cache hit ratio between two /statsz reads.
func (s serveStatsz) hitRatioSince(s0 serveStatsz) float64 {
	hits, misses := s.Cache.Hits-s0.Cache.Hits, s.Cache.Misses-s0.Cache.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// routerStatsz is the part of kbrouter's GET /statsz reply the
// benchmark reads.
type routerStatsz struct {
	Client shardkb.Stats `json:"client"`
}

// liveServe starts one kbserve on the merged snapshot, warms it like
// the workload does, and replays the ladder's requests with one client.
func liveServe(ctx context.Context, e *env, w workloadDef, seed int64, snapshot string, orc *oracle, ids []int, r *report) error {
	t, err := e.startTier(ctx, []string{snapshot})
	if err != nil {
		return err
	}
	defer e.stop(t.procs()...)
	r.tally.addSamples(driveLists(ctx, t.front, orc, orc.sp.warmupIDs(w, seed)))

	var s0, s1 serveStatsz
	if err := getJSON(t.front+"/statsz", &s0); err != nil {
		return err
	}
	cpu0, err := sumCPU(t.procs())
	if err != nil {
		return err
	}
	r.tally.addSamples(driveLists(ctx, t.front, orc, [][]int{ids}))
	cpu1, err := sumCPU(t.procs())
	if err != nil {
		return err
	}
	if err := getJSON(t.front+"/statsz", &s1); err != nil {
		return err
	}
	r.metrics["qcache.live_hit_ratio"] = s1.hitRatioSince(s0)
	r.metrics["serve.cpu_us_per_query"] = micros(cpu1-cpu0) / float64(len(ids))
	return ctx.Err()
}

// ofClass returns the first n ids of ids whose query has one of the
// given classes.
func ofClass(sp *space, ids []int, n int, classes ...string) []int {
	var out []int
	for _, id := range ids {
		for _, c := range classes {
			if sp.all[id].class == c && len(out) < n {
				out = append(out, id)
			}
		}
	}
	return out
}

// p50 sends ids one by one and returns the median latency of the
// correct answers.
func p50(ctx context.Context, base string, orc *oracle, ids []int, r *report) float64 {
	samples := driveLists(ctx, base, orc, [][]int{ids})
	r.tally.addSamples(samples)
	var lats []float64
	for _, s := range samples {
		if s.err == nil {
			lats = append(lats, micros(s.lat))
		}
	}
	return median(lats)
}

// liveRouter starts the sharded tier and measures kbrouter from
// outside: a replay of the workload's routable sequence for RPCs and
// CPU per query, then per-class probes for latencies, the router hop,
// and the exact RPC count of the three analytic joins.
func liveRouter(ctx context.Context, e *env, w workloadDef, seed int64, snapshots []string, orc *oracle, r *report) error {
	sp := orc.sp
	// The same traffic shape as w, restricted to the routable classes.
	routed := w
	routed.shards = len(snapshots)
	t, err := e.startTier(ctx, snapshots)
	if err != nil {
		return err
	}
	defer e.stop(t.procs()...)
	// Only a hot workload is warmed up here: a uniform one misses the
	// shard caches anyway, and its warm-up draws would send a few
	// hundred analytic joins through the router, minutes of work.
	if routed.hot {
		r.tally.addSamples(driveLists(ctx, t.front, orc, sp.warmupIDs(routed, seed)))
	}

	rpcs := func() (shardkb.Stats, error) {
		var s routerStatsz
		err := getJSON(t.front+"/statsz", &s)
		return s.Client, err
	}
	ids := sp.newSequence(routed, seed, 0, 0).take(routerRequests)
	s0, err := rpcs()
	if err != nil {
		return err
	}
	routerCPU0, err := t.router.cpuTime()
	if err != nil {
		return err
	}
	shardCPU0, err := sumCPU(t.shards)
	if err != nil {
		return err
	}
	// One /statsz read per request attributes the RPCs to its class.
	joinRPCs := uint64(0)
	prev := s0
	cl := newCaller()
	defer cl.close()
	for _, id := range ids {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		q := sp.all[id]
		r.tally.add(cl.ask(ctx, t.front, orc, q).err)
		cur, err := rpcs()
		if err != nil {
			return err
		}
		if q.class == "join_full" {
			joinRPCs += cur.RPCs - prev.RPCs
		}
		prev = cur
	}
	routerCPU1, err := t.router.cpuTime()
	if err != nil {
		return err
	}
	shardCPU1, err := sumCPU(t.shards)
	if err != nil {
		return err
	}
	n := float64(len(ids))
	total := prev.RPCs - s0.RPCs
	m := r.metrics
	m["kbrouter.rpcs_per_query"] = float64(total) / n
	if calls := (prev.FastPath - s0.FastPath) + (prev.Scatters - s0.Scatters); calls > 0 {
		m["kbrouter.fast_path_rate"] = float64(prev.FastPath-s0.FastPath) / float64(calls)
	} else {
		m["kbrouter.fast_path_rate"] = 0
	}
	m["kbrouter.cpu_us_per_query"] = micros(routerCPU1-routerCPU0) / n
	m["kbrouter.shard_cpu_us_per_query"] = micros(shardCPU1-shardCPU0) / n
	r.notef("kbrouter replay: %d requests, %d shard RPCs, %d of them (%.1f%%) for join_full",
		len(ids), total, joinRPCs, 100*float64(joinRPCs)/float64(total))

	// The three analytic joins alone, three rounds: the RPCs of one
	// round are the count a batched bind join has to move.
	before, err := rpcs()
	if err != nil {
		return err
	}
	const rounds = 3
	var joins []int
	for i := 0; i < rounds; i++ {
		joins = append(joins, sp.joins...)
	}
	m["kbrouter.join_full_p50_us"] = p50(ctx, t.front, orc, joins, r)
	after, err := rpcs()
	if err != nil {
		return err
	}
	m["kbrouter.join_full_rpcs"] = float64(after.RPCs-before.RPCs) / rounds

	list := sp.routable
	points := ofClass(sp, list, probes, "point")
	m["kbrouter.point_p50_us"] = p50(ctx, t.front, orc, points, r)
	m["kbrouter.chain_p50_us"] = p50(ctx, t.front, orc, ofClass(sp, list, probes, "chain2", "chain3"), r)
	m["kbrouter.scan_p50_us"] = p50(ctx, t.front, orc, ofClass(sp, list, probes, "scan"), r)

	// The hop: the same point lookups sent straight to the shard that
	// owns the subject, which holds the whole answer because kbbuild
	// partitions by subject. Both sides were touched once before, so
	// both are cache hits on the shard.
	var direct []float64
	for _, id := range points {
		q := sp.all[id]
		p := orc.parsed[id][0]
		shard := shardkb.ShardOf(p.S.Const, len(t.shards))
		s := cl.ask(ctx, t.shards[shard].url, orc, q)
		r.tally.add(s.err)
		if s.err == nil {
			direct = append(direct, micros(s.lat))
		}
	}
	again := p50(ctx, t.front, orc, points, r)
	m["kbrouter.hop_us"] = again - median(direct)
	return ctx.Err()
}

// saveTier writes st the way kbbuild does: one merged snapshot and n
// subject-hash partitions.
func saveTier(st *core.Store, dir string, n int) (merged string, shards []string, err error) {
	merged = filepath.Join(dir, "kb.nt")
	if err := st.SaveFile(merged); err != nil {
		return "", nil, err
	}
	for i := 0; i < n; i++ {
		shards = append(shards, filepath.Join(dir, fmt.Sprintf("kb.%d.nt", i)))
	}
	err = st.SaveShardFiles(shards, func(t rdf.Triple) int { return shardkb.TripleShard(t, n) })
	return merged, shards, err
}
