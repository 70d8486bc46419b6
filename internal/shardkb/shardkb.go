// Package shardkb is the scatter/gather layer of the serving tier: the
// shard function that hash-partitions a KB by subject term, an HTTP
// client that runs triple patterns against N kbserve shards, and the
// join executor the router runs on top of it.
//
// The client speaks two endpoints to its shards, /bind and /estimate.
// Client.Bind is one step of a bind join: it extends a whole set of
// positional rows by one pattern in one POST /bind per shard, each
// distinct binding sent once and only to the shard that can match it — a
// subject-constant pattern goes to exactly one shard (the fast path that
// makes a point lookup cost one RPC at any shard count) — with per-shard
// timeouts, bounded in-flight RPCs, and an explicit partial-failure
// policy. Client.Join plans a conjunction (one Estimates call, connected
// patterns first) and chains Bind steps, so a join costs about
// shards x (1 + steps) RPCs instead of one per binding; a single pattern
// is a join of one step, with no Estimates call. Client.Pattern is that
// one-step join with its rows returned as bindings.
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
// Every 200 reply from a kbserve states its epoch (serve.EpochHeader),
// which changes whenever the answers the server gives may change: a new
// process or a write. The client remembers the last epoch of each replica
// and counts every change — a replica's first reply included, and any
// 200 reply without the header — in Generation, the one number
// kbrouter's result cache validates its entries against.
//
// The shard function is the contract between the builder and the router:
// kbbuild -shards partitions facts with TripleShard, and the client pins
// subject-constant patterns with PatternShard, so a point lookup lands on
// the one shard that can hold its facts. Both sides must agree — changing
// the hash invalidates every partitioned snapshot.
package shardkb

import (
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
	return shardOfWire(t.String(), n)
}

// shardOfWire is ShardOf for a term already in canonical N-Triples form,
// which is how the join executor carries its cells.
func shardOfWire(s string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a, 64 bit
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return int(h % uint64(n))
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
