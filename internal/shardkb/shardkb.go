// Package shardkb is the scatter/gather layer of the serving tier: the
// shard function that hash-partitions a KB by subject term, and an HTTP
// client that executes single triple patterns against N kbserve shards —
// routing a subject-constant pattern to exactly one shard (the fast path
// that makes point lookups cost one RPC regardless of shard count) and
// fanning everything else out concurrently with per-shard timeouts,
// bounded in-flight RPCs, and an explicit partial-failure policy.
//
// New takes the tier as one string per shard. Each may name a replica
// group — base URLs joined by "|", the syntax of kbrouter -shards — whose
// members serve the same partition; a plain URL is a group of one. The
// client rides out replica faults by retrying transient failures
// (connection errors, 5xx, timeouts, torn bodies)
// across replicas with jittered exponential backoff, optionally hedging
// slow requests (first reply wins, the loser is cancelled), and wrapping
// every replica in a circuit breaker that sheds traffic from a dead
// replica until its half-open /readyz probe succeeds. Stats reports
// retries, hedges fired/won, breaker transitions, and per-replica error
// counts.
//
// The shard function is the contract between the builder and the router:
// kbbuild -shards partitions facts with TripleShard, and the client pins
// subject-constant patterns with PatternShard, so a point lookup lands on
// the one shard that can hold its facts. Both sides must agree — changing
// the hash invalidates every partitioned snapshot.
package shardkb

import (
	"hash/fnv"
	"io"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// ShardOf maps a term to one of n shards by FNV-1a over its canonical
// N-Triples form. n <= 1 always yields shard 0 — the single-file snapshot
// format is the N=1 case of the partitioned one.
func ShardOf(t rdf.Term, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	io.WriteString(h, t.String())
	return int(h.Sum64() % uint64(n))
}

// TripleShard maps a fact to its home shard: facts are partitioned by
// subject, so all facts about one entity are co-located.
func TripleShard(t rdf.Triple, n int) int { return ShardOf(t.S, n) }

// PatternShard reports the one shard that can match p, when p's subject
// is a constant: subject-hash partitioning pins the pattern. A variable
// or wildcard subject means every shard may hold matches (false).
func PatternShard(p core.Pattern, n int) (int, bool) {
	if p.S.Var != "" || p.S.Const.IsZero() {
		return 0, false
	}
	return ShardOf(p.S.Const, n), true
}

// FormatTerm renders a pattern term in the wire syntax core.ParsePattern
// accepts: "?name" for variables, the canonical N-Triples form for
// constants (which ParsePatternTerm round-trips, literals included).
func FormatTerm(pt core.PatternTerm) string {
	if pt.Var != "" {
		return "?" + string(pt.Var)
	}
	return pt.Const.String()
}

// FormatPattern renders a pattern as the "s p o" line the /query and
// /estimate endpoints parse.
func FormatPattern(p core.Pattern) string {
	return FormatTerm(p.S) + " " + FormatTerm(p.P) + " " + FormatTerm(p.O)
}
