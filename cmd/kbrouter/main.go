// Kbrouter is the scatter/gather front of the sharded serving tier. It
// speaks the same /query JSON protocol as kbserve but answers from N
// kbserve shards, to which it sends only POST /bind and POST /estimate.
// Every query runs as a set-at-a-time bind join (internal/shardkb,
// Client.Join): one /estimate round plans the order — connected patterns
// first, the summed shard estimates within each class — and then every
// step sends all of its distinct bindings in one POST /bind per shard,
// each binding only to the shard that owns it when the step's subject is
// bound. A join costs about shards x (1 + steps) RPCs however many
// bindings flow through it. A single pattern is a join of one step with
// no /estimate round: pinned to the one shard its subject hashes to (a
// point lookup costs one RPC at any shard count), or one /bind per shard.
//
// # Result cache
//
// A repeated query costs no shard RPC: the router keeps the encoded reply
// of every full answer (qcache's LRU, 16 x 256 replies) and answers a
// repeat with "cached": true. Every kbserve reply states the shard's
// epoch (a Kb-Epoch header that changes on a restart or a write); an
// epoch the router has not seen from a replica, or a reply without one,
// invalidates everything cached before it. A hit is as fresh as the last
// reply, or /readyz, the router saw from each replica. Partial replies
// and errors are never cached. OPERATIONS.md spells out the contract.
//
// # Deployment topology
//
// The tier is built in three steps, all agreeing on the subject-hash
// shard function in internal/shardkb:
//
//	kbbuild -shards N -out kb.nt     # writes kb.0.nt … kb.N-1.nt
//	kbserve -kb kb.i.nt -addr :808i  # one or more processes per partition
//	kbrouter -shards http://h0a:8080|http://h0b:8080,http://h1:8080
//
// Shard order on the kbrouter command line must match the partition
// indexes kbbuild wrote: shard i of the router is queried for exactly
// the subjects that hash to partition i. The router reaches a shard's
// /bind, /estimate and /readyz only; a shard's /query and its reply
// cache serve clients that talk to that kbserve directly. Each comma-separated shard may
// list several replicas joined with "|" — kbserve processes loaded from
// the same kb.i.nt — and the router rides out replica faults: transient
// failures (connection errors, 5xx, timeouts) retry on another replica
// with jittered exponential backoff, -hedge races a second replica
// against a slow first attempt, and a per-replica
// circuit breaker (-breaker-threshold, -breaker-cooldown) sheds traffic
// from a dead replica until its /readyz probe recovers. Adding capacity
// means re-partitioning with a new N and rolling the tier; kbserve
// drains gracefully on SIGTERM so a rolling restart behind the router
// never drops in-flight queries, and the router's /readyz refuses
// traffic until every shard has a ready replica.
//
// Usage:
//
//	kbrouter -shards 'http://h0a:8080|http://h0b:8080,http://h1:8080'
//	         [-addr :8090] [-timeout 5s] [-shard-timeout 2s]
//	         [-max-inflight 16] [-allow-partial]
//	         [-retries 3] [-retry-base 20ms] [-retry-max 250ms]
//	         [-hedge 30ms]
//	         [-breaker-threshold 5] [-breaker-cooldown 1s]
//
// Endpoints:
//
//	POST /query   same JSON protocol as kbserve; "cached": true when the
//	              router answered from its own cache; responses gain a
//	              "partial": true flag when -allow-partial merged
//	              results with a shard down (the default policy instead
//	              fails such queries with a partial error)
//	GET  /statsz  the result cache (kbserve's shape), per-shard latency,
//	              fan-out counts, fast-path hit rate, partial-failure
//	              counts
//	GET  /healthz liveness probe
//	GET  /readyz  readiness of the whole tier (503 until every shard
//	              serves a loaded snapshot)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbrouter: ")
	shards := flag.String("shards", "", "comma-separated shards in partition order; replicas of one shard joined with | (required)")
	addr := flag.String("addr", ":8090", "listen address")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request query timeout")
	shardTimeout := flag.Duration("shard-timeout", 2*time.Second, "per-replica RPC attempt timeout")
	maxInflight := flag.Int("max-inflight", 0, "bound on concurrent shard RPCs (0 = 2x shard count, at least 4)")
	allowPartial := flag.Bool("allow-partial", false, "merge available results when shards fail instead of failing the query")
	retries := flag.Int("retries", 0, "max physical attempts per shard RPC, first try included (0 = 2x replicas, clamped to [2,4])")
	retryBase := flag.Duration("retry-base", 20*time.Millisecond, "first retry backoff (exponential with jitter)")
	retryMax := flag.Duration("retry-max", 250*time.Millisecond, "retry backoff cap")
	hedge := flag.Duration("hedge", 0, "fixed hedge delay: fire a second replica attempt if the first has not replied (0 = off)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures before a replica's circuit breaker opens (negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "how long an open breaker waits before a half-open /readyz probe")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	drainNotice := flag.Duration("drain-notice", 500*time.Millisecond, "how long /readyz advertises draining before the listener closes")
	flag.Parse()
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "usage: kbrouter -shards http://h0a:8080|http://h0b:8080,http://h1:8080 [-addr :8090]")
		os.Exit(2)
	}
	client, err := shardkb.New(strings.Split(*shards, ","), shardkb.Options{
		Timeout:          *shardTimeout,
		MaxInFlight:      *maxInflight,
		AllowPartial:     *allowPartial,
		MaxAttempts:      *retries,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		HedgeDelay:       *hedge,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Startup readiness probe: don't refuse to start (shards may still be
	// loading — /readyz gates traffic), but tell the operator.
	probe, cancel := context.WithTimeout(context.Background(), *shardTimeout+time.Second)
	if replies, err := client.Ready(probe); err != nil {
		log.Printf("warning: shard tier not ready yet: %v", err)
	} else {
		facts := 0
		for _, r := range replies {
			facts += r.Facts
		}
		log.Printf("%d shards ready, %d facts total", client.NumShards(), facts)
	}
	cancel()

	rt := newRouter(client, *timeout)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d shards on %s", client.NumShards(), *addr)
	if err := serve.Run(context.Background(), ln, rt, rt.SetDraining, *drainNotice, *drain); err != nil {
		log.Fatal(err)
	}
}
