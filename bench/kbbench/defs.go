package main

// The names in this file are the benchmark's vocabulary: BENCHMARK.json
// declares the same workloads and metrics, smoke_test.go fails when the
// two differ, and emit refuses to print a result whose keys differ from
// the table for its mode.

// clients is the closed-loop client count: one keep-alive connection
// each. The box has 2 cores; more clients than cores would measure the
// scheduler.
const clients = 2

// joinFullEvery makes every 20th request of a client an analytic
// join_full, 5 % of the traffic, so lat_p50_us sits inside the
// entity-query path and lat_p99_us inside the analytic path.
const joinFullEvery = 20

// requestCycle is the period of a client's stream: the three analytic
// joins once each.
const requestCycle = 3 * joinFullEvery

// hotSet is how many queries of the space the Zipf workloads draw from:
// half of kbserve's default cache (16 x 256 entries).
const hotSet = 2000

// The hot workloads draw rank k with probability proportional to
// (zipfV+k)^-zipfS: the top 100 of the 2000 get 40 % of the draws and
// the most popular query 1 %. With an offset of 1 that one query would
// get 18 %, and which class it happens to be under a seed would decide
// the median latency.
const (
	zipfS = 1.1
	zipfV = 30
)

// ladderRequests is how many requests of client 0's sequence the
// in-process ladder replays.
const ladderRequests = 5000

type workloadDef struct {
	name string
	why  string

	scale  float64 // kbbuild -scale
	reason bool    // false adds -no-reason
	check  bool    // kbbuild -check
	shards int     // kbbuild -shards; > 1 puts kbrouter in front
	hot    bool    // Zipf over the first hotSet queries instead of uniform over all
	warmup int     // uniform workloads: warm-up draws before the window
}

func (w workloadDef) routed() bool { return w.shards > 1 }

var workloads = []workloadDef{
	{
		name:  "serve_hot",
		why:   "Zipf over 2000 queries, half of kbserve's cache: >=97% hits, so serve and the qcache hit path do the work",
		scale: 16, shards: 1, hot: true,
	},
	{
		name:  "serve_cold",
		why:   "uniform over the whole space, ~12x the cache: <=15% hits, so core and qcache miss/insert/evict do the work",
		scale: 16, shards: 1, warmup: 5000,
	},
	{
		name:  "router_mix",
		why:   "2 shards behind kbrouter, Zipf over 2000 routable queries: the router's executor and shardkb RPCs do the work",
		scale: 16, shards: 2, hot: true,
	},
	{
		name:  "build",
		why:   "kbbuild with reasoning and -check, 7 cold starts, then uniform reads of the built KB: the write side of core",
		scale: 4, reason: true, check: true, shards: 1, warmup: 1000,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
	live   bool    // per-layer only: measured on child processes, so absent from the in-process smoke test
}

// endToEnd is what a caller of the tier and an operator of the KB see.
// Every workload reports every metric: the serving workloads take the
// build-side numbers from the kbbuild and kbserve runs that set them
// up, and build takes the read-side numbers from a window of uniform
// reads on the KB it built. The bounds are what this box allows, not
// what one would like: see "Noise on this box" in ../README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "lat_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "server_cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "build_docs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "build_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "load_facts_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "snapshot_bytes_per_fact", unit: "bytes", better: "lower", bound: 0.01},
	{name: "fact_f1", unit: "ratio", better: "higher", bound: 0.01},
}

var perLayer = []metricDef{
	{name: "core.parse_us", unit: "us", better: "lower"},
	{name: "core.query_us", unit: "us", better: "lower"},
	{name: "core.query_p99_us", unit: "us", better: "lower"},
	{name: "core.join_full_us", unit: "us", better: "lower"},
	{name: "core.rows_per_query", unit: "count", better: "lower"},
	{name: "core.allocs_per_query", unit: "count", better: "lower"},
	{name: "core.alloc_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "core.estimate_us", unit: "us", better: "lower"},

	{name: "qcache.query_us", unit: "us", better: "lower"},
	{name: "qcache.hit_us", unit: "us", better: "lower"},
	{name: "qcache.miss_overhead_us", unit: "us", better: "lower"},
	{name: "qcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "qcache.evictions_per_kquery", unit: "count", better: "lower"},
	{name: "qcache.live_hit_ratio", unit: "ratio", better: "higher", live: true},

	{name: "serve.handler_us", unit: "us", better: "lower"},
	{name: "serve.handler_self_us", unit: "us", better: "lower"},
	{name: "serve.socket_self_us", unit: "us", better: "lower"},
	{name: "serve.join_full_encode_us", unit: "us", better: "lower"},
	{name: "serve.resp_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "serve.allocs_per_query", unit: "count", better: "lower"},
	{name: "serve.cpu_us_per_query", unit: "us", better: "lower", live: true},

	{name: "shardkb.pinned_us", unit: "us", better: "lower"},
	{name: "shardkb.scatter_us", unit: "us", better: "lower"},
	{name: "shardkb.estimates_us", unit: "us", better: "lower"},
	{name: "shardkb.rpcs_per_call", unit: "count", better: "lower"},
	{name: "shardkb.retries", unit: "count", better: "lower"},
	{name: "shardkb.hedges_fired", unit: "count", better: "lower"},

	{name: "kbrouter.rpcs_per_query", unit: "count", better: "lower", live: true},
	{name: "kbrouter.join_full_rpcs", unit: "count", better: "lower", live: true},
	{name: "kbrouter.fast_path_rate", unit: "ratio", better: "higher", live: true},
	{name: "kbrouter.cpu_us_per_query", unit: "us", better: "lower", live: true},
	{name: "kbrouter.shard_cpu_us_per_query", unit: "us", better: "lower", live: true},
	{name: "kbrouter.hop_us", unit: "us", better: "lower", live: true},
	{name: "kbrouter.point_p50_us", unit: "us", better: "lower", live: true},
	{name: "kbrouter.chain_p50_us", unit: "us", better: "lower", live: true},
	{name: "kbrouter.scan_p50_us", unit: "us", better: "lower", live: true},
	{name: "kbrouter.join_full_p50_us", unit: "us", better: "lower", live: true},

	{name: "pipeline.generate_ms", unit: "ms", better: "lower"},
	{name: "pipeline.taxonomy_ms", unit: "ms", better: "lower"},
	{name: "pipeline.extract_ms", unit: "ms", better: "lower"},
	{name: "pipeline.reason_ms", unit: "ms", better: "lower"},
	{name: "pipeline.assert_ms", unit: "ms", better: "lower"},
	{name: "pipeline.labels_ms", unit: "ms", better: "lower"},
	{name: "pipeline.nedmodels_ms", unit: "ms", better: "lower"},
	{name: "pipeline.candidates", unit: "count", better: "higher"},
	{name: "pipeline.accepted", unit: "count", better: "higher"},

	{name: "ingest.ns_per_fact", unit: "ns", better: "lower"},
	{name: "core.add_ns_per_fact", unit: "ns", better: "lower"},
	{name: "core.addbatch_ns_per_fact", unit: "ns", better: "lower"},
	{name: "core.save_ns_per_fact", unit: "ns", better: "lower"},
	{name: "core.savefile_ms", unit: "ms", better: "lower"},
	{name: "core.load_ns_per_fact", unit: "ns", better: "lower"},
	{name: "core.heap_bytes_per_fact", unit: "bytes", better: "lower"},
	{name: "rdf.parse_ns_per_term", unit: "ns", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}
