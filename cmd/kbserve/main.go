// Kbserve is the long-lived query serving surface of the knowledge base:
// it loads a snapshot once and serves concurrent conjunctive queries over
// HTTP, with per-request timeouts and an operational stats endpoint. A
// query it has answered is kept as its encoded reply in a sharded LRU
// (internal/qcache) of 16 x 256 replies, valid until the store is written,
// so a repeat is answered with the stored bytes and a fresh "cached" and
// "took_us"; what the cache holds costs memory per encoded byte. The
// handler itself lives in internal/serve; N kbserve processes over
// partitioned snapshots (kbbuild -shards) form the shard tier behind
// cmd/kbrouter.
//
// Usage:
//
//	kbserve -kb kb.nt [-addr :8080] [-timeout 2s]
//
// Endpoints:
//
//	POST /query    {"patterns": ["?p kb:founded ?c", "?c kb:locatedIn ?city"], "limit": 100}
//	               -> {"vars": [...], "rows": [{"var": "<term>"}, ...], "count": N,
//	                   "cached": true|false, "took_us": T}
//	               Patterns use the kbquery "s p o" syntax: ?name marks
//	               variables, bare tokens and <...> are IRIs, double-quoted
//	               strings are literals. An all-constant query returns
//	               {"ask": true|false} instead of rows.
//	POST /estimate {"patterns": [...]} -> per-pattern index-cardinality bounds
//	POST /bind     one pattern + positional binding rows (+ a limit) ->
//	               each row's matches: kbrouter's join step, and the only
//	               query endpoint kbrouter uses (see internal/serve/bind.go)
//	GET  /statsz   cache hit rate, query latency histogram, store stats
//	GET  /healthz  liveness probe
//	GET  /readyz   readiness: fact count + snapshot path; 503 while empty,
//	               while the snapshot failed CRC verification (the three
//	               POST endpoints answer 503 then, too), or while draining
//	               for shutdown
//
// On SIGINT/SIGTERM the server first flips /readyz to 503 ("draining")
// for -drain-notice so routers stop sending work, then stops accepting
// connections and drains in-flight requests for up to -drain before
// exiting, so a rolling restart behind kbrouter never kills queries
// mid-flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbserve: ")
	kbPath := flag.String("kb", "", "KB snapshot path (required)")
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request query timeout")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	drainNotice := flag.Duration("drain-notice", 500*time.Millisecond, "how long /readyz advertises draining before the listener closes")
	flag.Parse()
	if *kbPath == "" {
		fmt.Fprintln(os.Stderr, "usage: kbserve -kb snapshot.nt [-addr :8080]")
		os.Exit(2)
	}
	f, err := os.Open(*kbPath)
	if err != nil {
		log.Fatal(err)
	}
	st := core.NewStore()
	n, loadErr := st.Load(f)
	f.Close()
	if loadErr != nil {
		// A corrupt snapshot (failed CRC, truncated file) is not a reason
		// to crash-loop: keep the process up so operators can hit /statsz
		// and /healthz, but never report ready — the router will not send
		// traffic to this shard. It serves a fresh empty store beside the
		// error, so /statsz can never report a prefix of a rejected file.
		log.Printf("SNAPSHOT REJECTED, refusing ready: %v", loadErr)
		st = core.NewStore()
	} else {
		log.Printf("loaded %d facts from %s: %s", n, *kbPath, st)
	}

	srv := serve.NewServer(st, serve.Options{
		Timeout:   *timeout,
		Snapshot:  *kbPath,
		LoadError: loadErr,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s", *addr)
	if err := serve.Run(context.Background(), ln, srv, srv.SetDraining, *drainNotice, *drain); err != nil {
		log.Fatal(err)
	}
}
