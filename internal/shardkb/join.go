package shardkb

import (
	"context"
	"slices"

	"kbharvest/internal/core"
)

// Join evaluates a conjunction of patterns across the shard tier as a
// set-at-a-time bind join: starting from the one empty solution, each
// step hands the whole intermediate result and one pattern to Bind, so
// a join costs about shards x (1 + steps) RPCs — one /estimate round,
// then one /bind per shard per step — however many bindings flow
// through it.
//
// The order is planned from a single up-front Estimates call and is
// connected-first: a pattern sharing a variable with what is already
// bound always runs before one that does not, and the estimate orders
// within each class. That keeps a chain or star from degenerating into
// a cross product when an unrelated pattern happens to estimate lower,
// at no extra round trip. A single pattern is a join of one step and
// skips the Estimates call. limit caps the rows returned (0 = all); only
// the last step passes it on to the shards, because a row an earlier step
// returns may still be filtered out by a later pattern.
func (c *Client) Join(ctx context.Context, patterns []core.Pattern, limit int) (Rows, error) {
	ests := make([]int, len(patterns))
	if len(patterns) > 1 {
		var err error
		if ests, err = c.Estimates(ctx, patterns); err != nil {
			return Rows{}, err
		}
	}
	rows := Rows{N: 1}
	done := make([]bool, len(patterns))
	for step := range patterns {
		if rows.N == 0 {
			break // conjunction already empty
		}
		best, bestConnected := -1, false
		for i, p := range patterns {
			if done[i] {
				continue
			}
			conn := connected(p, rows.Vars)
			if best < 0 || (conn && !bestConnected) || (conn == bestConnected && ests[i] < ests[best]) {
				best, bestConnected = i, conn
			}
		}
		done[best] = true
		stepLimit := 0
		if step == len(patterns)-1 {
			stepLimit = limit
		}
		var err error
		if rows, err = c.Bind(ctx, patterns[best], rows, stepLimit); err != nil {
			return Rows{}, err
		}
	}
	if rows.N == 0 {
		// A conjunction emptied early still names every variable it asked
		// for: no variables at all is how an all-constant (ASK) conjunction
		// reads, and this one merely has no solutions.
		for _, p := range patterns {
			for _, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
				if pt.Var != "" && !slices.Contains(rows.Vars, pt.Var) {
					rows.Vars = append(rows.Vars, pt.Var)
				}
			}
		}
	}
	if limit > 0 && rows.N > limit {
		rows.N = limit
		rows.Cells = rows.Cells[:limit*len(rows.Vars)]
	}
	return rows, nil
}

// connected reports whether p uses a variable that is already bound.
func connected(p core.Pattern, bound []core.Var) bool {
	for _, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
		if pt.Var != "" && slices.Contains(bound, pt.Var) {
			return true
		}
	}
	return false
}
