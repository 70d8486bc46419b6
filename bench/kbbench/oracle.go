package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"kbharvest/internal/core"
	"kbharvest/internal/serve"
)

// answer is what the oracle expects of one query: for an ASK its truth
// value, otherwise the row count and an order-independent hash of the
// rows. A query with a limit may return any limit rows of the full
// result, so it keeps the hash of every row instead.
type answer struct {
	ask   bool
	truth bool
	count int
	hash  uint64
	full  map[uint64]bool // limit > 0 only
}

// observed is the same digest of what a layer actually returned.
type observed struct {
	ask   bool
	truth bool
	count int
	hash  uint64
	rows  []uint64 // per-row hashes, kept for limit queries only

	cached  bool // the reply's "cached" flag; not compared
	payload int  // reply bytes without the digits of took_us and the cached flag, which vary from run to run
}

// oracle holds the expected answer of every query, computed directly
// on one merged store before any load is sent.
type oracle struct {
	sp      *space
	answers []answer
	parsed  [][]core.Pattern
}

// rowHash digests one row given its variables in sorted order.
func rowHash(vars []string, term func(v string) string) uint64 {
	h := fnv.New64a()
	for _, v := range vars {
		h.Write([]byte(v))
		h.Write([]byte{0})
		h.Write([]byte(term(v)))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

func bindingHash(b core.Binding) uint64 {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	return rowHash(vars, func(v string) string { return b[core.Var(v)].String() })
}

// observeBindings digests what core, qcache or shardkb returned.
func observeBindings(q *query, pats []core.Pattern, bs []core.Binding) observed {
	if !serve.HasVars(pats) {
		return observed{ask: true, truth: len(bs) > 0}
	}
	ob := observed{count: len(bs)}
	for _, b := range bs {
		h := bindingHash(b)
		ob.hash += h
		if q.limit > 0 {
			ob.rows = append(ob.rows, h)
		}
	}
	return ob
}

// observeResponse digests a /query reply body.
func observeResponse(q *query, body []byte) (observed, error) {
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return observed{}, fmt.Errorf("bad reply body: %v", err)
	}
	if resp.Partial {
		return observed{}, fmt.Errorf("partial answer")
	}
	payload := len(body) - len(strconv.FormatInt(resp.TookUS, 10)) - len(strconv.FormatBool(resp.Cached))
	if resp.Ask != nil {
		return observed{ask: true, truth: *resp.Ask, cached: resp.Cached, payload: payload}, nil
	}
	if resp.Count != len(resp.Rows) {
		return observed{}, fmt.Errorf("count %d but %d rows", resp.Count, len(resp.Rows))
	}
	ob := observed{count: resp.Count, cached: resp.Cached, payload: payload}
	for _, row := range resp.Rows {
		h := rowHash(resp.Vars, func(v string) string { return row[v] })
		ob.hash += h
		if q.limit > 0 {
			ob.rows = append(ob.rows, h)
		}
	}
	return ob, nil
}

// newOracle evaluates every query of the space on st, clients at a time.
func newOracle(ctx context.Context, st *core.Store, sp *space) (*oracle, error) {
	o := &oracle{sp: sp, answers: make([]answer, len(sp.all)), parsed: make([][]core.Pattern, len(sp.all))}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(sp.all) && errs[c] == nil; i += clients {
				errs[c] = o.solve(ctx, st, sp.all[i])
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// parsePatterns parses a query's wire patterns.
func parsePatterns(lines []string) ([]core.Pattern, error) {
	pats := make([]core.Pattern, len(lines))
	for i, line := range lines {
		p, err := core.ParsePattern(line)
		if err != nil {
			return nil, err
		}
		pats[i] = p
	}
	return pats, nil
}

func (o *oracle) solve(ctx context.Context, st *core.Store, q *query) error {
	pats, err := parsePatterns(q.lines)
	if err != nil {
		return fmt.Errorf("oracle: %s query %d: %w", q.class, q.id, err)
	}
	o.parsed[q.id] = pats
	var a answer
	if !serve.HasVars(pats) {
		a.ask = true
	} else if q.limit > 0 {
		a.full = map[uint64]bool{}
	}
	err = st.QueryFunc(ctx, pats, 0, func(b core.Binding) bool {
		a.count++
		if a.ask {
			return true
		}
		h := bindingHash(b)
		a.hash += h
		if a.full != nil {
			a.full[h] = true
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("oracle: %s query %d: %w", q.class, q.id, err)
	}
	a.truth = a.count > 0
	if q.limit > 0 && a.count > q.limit {
		a.count = q.limit
	}
	o.answers[q.id] = a
	return nil
}

// check compares one observation with the expected answer; a non-nil
// error is a failed operation. The caller names the query.
func (o *oracle) check(q *query, ob observed) error {
	a := &o.answers[q.id]
	switch {
	case a.ask != ob.ask:
		return fmt.Errorf("ask=%v, oracle ask=%v", ob.ask, a.ask)
	case a.ask:
		if a.truth != ob.truth {
			return fmt.Errorf("answered %v, oracle %v", ob.truth, a.truth)
		}
	case a.count != ob.count:
		return fmt.Errorf("%d rows, oracle %d", ob.count, a.count)
	case a.full != nil:
		seen := make(map[uint64]bool, len(ob.rows))
		for _, h := range ob.rows {
			if !a.full[h] || seen[h] {
				return fmt.Errorf("a returned row is repeated or not in the full result")
			}
			seen[h] = true
		}
	case a.hash != ob.hash:
		return fmt.Errorf("%d rows as expected but their content differs from the oracle", ob.count)
	}
	return nil
}

// judgeReply digests a /query reply (or the error of getting it) and
// checks it; a non-nil error is a failed operation and names the query.
func (o *oracle) judgeReply(q *query, body []byte, err error) (observed, error) {
	var ob observed
	if err == nil {
		if ob, err = observeResponse(q, body); err == nil {
			err = o.check(q, ob)
		}
	}
	if err != nil {
		err = fmt.Errorf("%s %v: %w", q.class, q.lines, err)
	}
	return ob, err
}

// judgeBindings is judgeReply for the layers below the wire format.
func (o *oracle) judgeBindings(q *query, bs []core.Binding, err error) error {
	if err == nil {
		err = o.check(q, observeBindings(q, o.parsed[q.id], bs))
	}
	if err != nil {
		err = fmt.Errorf("%s %v: %w", q.class, q.lines, err)
	}
	return err
}
