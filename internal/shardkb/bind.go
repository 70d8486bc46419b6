package shardkb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
)

// Rows is a set of solution rows in positional form: row i binds Vars[j]
// to the term Cells[i*len(Vars)+j], held in its wire form — the
// canonical N-Triples string a shard sent — which serves unchanged as
// join key, shard-hash input and reply text, so a term is parsed once
// (to validate it) and never re-serialized.
type Rows struct {
	Vars  []core.Var
	Cells []string
	// N is the row count, explicit because a row of zero variables has no
	// cells: Rows{N: 1} is the one empty solution every join starts from.
	N int
	// Partial reports that a shard failed while these rows were computed
	// and AllowPartial kept the rest: rows may be missing, none is wrong.
	Partial bool
}

// bindStep is one pattern resolved against the columns of its input rows.
type bindStep struct {
	pattern [3]string  // wire form of the pattern's terms
	cols    []int      // input columns of the pattern's bound variables
	bound   []string   // their names, the request's "vars"
	fresh   []core.Var // variables the pattern newly binds, pattern order
	// Routing: facts are partitioned by subject, so a constant subject
	// sends every row to one shard (owner), a bound one sends each row to
	// the shard its subject cell hashes to (subject = index into cols),
	// and anything else must ask every shard.
	owner, subject int
}

// resolveStep splits p's variables into those vars already binds and
// those it newly binds, and picks the routing for n shards.
func resolveStep(p core.Pattern, vars []core.Var, n int) bindStep {
	st := bindStep{owner: -1, subject: -1}
	for i, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
		st.pattern[i] = FormatTerm(pt)
		if pt.Var == "" {
			continue
		}
		col := slices.Index(vars, pt.Var)
		if col < 0 {
			if !slices.Contains(st.fresh, pt.Var) {
				st.fresh = append(st.fresh, pt.Var)
			}
			continue
		}
		k := slices.Index(st.cols, col)
		if k < 0 {
			k = len(st.cols)
			st.cols = append(st.cols, col)
			st.bound = append(st.bound, string(pt.Var))
		}
		if i == 0 {
			st.subject = k
		}
	}
	if shard, ok := PatternShard(p, n); ok {
		st.owner = shard
	}
	return st
}

// distinctRows projects in onto cols and de-duplicates: cells holds the
// distinct projected rows, and members[start[d]:start[d+1]] the input
// rows that project to distinct row d.
func distinctRows(in Rows, cols []int) (cells []string, start, members []int) {
	w, k := len(in.Vars), len(cols)
	groupOf := make([]int, in.N)
	index := make(map[string]int, in.N)
	cells = make([]string, 0, in.N*k)
	var key []byte
	for r := 0; r < in.N; r++ {
		row := in.Cells[r*w : (r+1)*w]
		var id string
		switch k {
		case 0:
		case 1:
			id = row[cols[0]]
		default:
			// Length-prefixed, so no cell content can forge a boundary.
			key = key[:0]
			for _, col := range cols {
				key = strconv.AppendInt(key, int64(len(row[col])), 10)
				key = append(key, ':')
				key = append(key, row[col]...)
			}
			id = string(key)
		}
		d, ok := index[id]
		if !ok {
			d = len(index)
			index[id] = d
			for _, col := range cols {
				cells = append(cells, row[col])
			}
		}
		groupOf[r] = d
	}
	// Counting sort of the input rows by distinct row.
	start = make([]int, len(index)+1)
	for _, d := range groupOf {
		start[d+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	members = make([]int, in.N)
	fill := append([]int(nil), start[:len(index)]...)
	for r, d := range groupOf {
		members[fill[d]] = r
		fill[d]++
	}
	return cells, start, members
}

// bindReply is one shard's answer for the distinct rows sent[...].
type bindReply struct {
	sent []int // distinct-row index of each request row
	resp *serve.BindResponse
}

// bindBodyBudget is how large a /bind request body may grow before the
// step is split: the server's cap, less room for the closing brackets.
const bindBodyBudget = serve.MaxRequestBytes - 16

// Bind is one step of a bind join: it extends every row of in by the
// matches of p under that row's bindings and returns the extended rows
// (in's variables, then the variables p newly binds). Variables of p
// that in already binds act as constants per row; a pattern sharing no
// variable with in yields the cross product. limit > 0 caps the matches
// each shard request returns, so a scan with a limit does not ship every
// row; the caller still truncates the result (Join does). A limit above
// the wire's 2^31-1 is sent as 2^31-1: no shard holds that many matches.
//
// The rows are projected onto p's bound variables and de-duplicated, and
// each distinct row travels once, in one POST /bind per shard: only to
// the shard owning its subject when p's subject is a constant or bound,
// to every shard otherwise. A step too large for one request body is
// split. Each request goes through the client's retry, hedge, breaker and
// in-flight machinery (call), and a shard that fails — or answers
// with anything malformed — falls under its partial-failure policy.
func (c *Client) Bind(ctx context.Context, p core.Pattern, in Rows, limit int) (Rows, error) {
	st := resolveStep(p, in.Vars, len(c.groups))
	out := Rows{Vars: append(in.Vars[:len(in.Vars):len(in.Vars)], st.fresh...), Partial: in.Partial}
	if in.N == 0 {
		return out, nil
	}
	cells, start, members := distinctRows(in, st.cols)
	k, distinct := len(st.cols), len(start)-1

	// Which distinct rows go to which shard.
	send := make([][]int, len(c.groups))
	if st.owner >= 0 || st.subject < 0 {
		all := make([]int, distinct)
		for d := range all {
			all[d] = d
		}
		for shard := range send {
			if st.owner < 0 || st.owner == shard {
				send[shard] = all
			}
		}
	} else {
		for d := 0; d < distinct; d++ {
			shard := shardOfWire(cells[d*k+st.subject], len(c.groups))
			send[shard] = append(send[shard], d)
		}
	}
	var shards []int
	for shard, rows := range send {
		if len(rows) > 0 {
			shards = append(shards, shard)
		}
	}
	if st.owner >= 0 || st.subject >= 0 {
		c.fastPath.Add(1)
	} else {
		c.scatters.Add(1)
	}

	head := serve.AppendJSONStrings([]byte(`{"pattern":`), st.pattern[:])
	head = serve.AppendJSONStrings(append(head, `,"vars":`...), st.bound)
	if limit > 0 {
		limit = min(limit, math.MaxInt32)
		head = strconv.AppendInt(append(head, `,"limit":`...), int64(limit), 10)
	}
	head = append(head, `,"rows":[`...)

	// sendRows posts one shard's rows, in as many bodies as their size
	// needs, and collects the validated replies.
	replies := make([][]bindReply, len(c.groups))
	sendRows := func(shard int) error {
		rows := send[shard]
		body := append(make([]byte, 0, len(head)+24*k*len(rows)+2), head...)
		first := 0 // rows[first:i] are in body
		flush := func(end int) error {
			data, err := c.call(ctx, shard, "/bind", append(body, ']', '}'))
			if err != nil {
				return err
			}
			resp, err := serve.ParseBindResponse(data)
			if err == nil {
				err = checkBindReply(resp, st.fresh, end-first)
			}
			if err != nil {
				return fmt.Errorf("bad /bind reply: %w", err)
			}
			replies[shard] = append(replies[shard], bindReply{sent: rows[first:end], resp: resp})
			body, first = body[:len(head)], end
			return nil
		}
		for i, d := range rows {
			mark := len(body)
			if i > first {
				body = append(body, ',')
			}
			body = serve.AppendJSONStrings(body, cells[d*k:(d+1)*k])
			if len(body) > bindBodyBudget && i > first {
				// The row does not fit: send what came before it and
				// start the next body with it.
				body = body[:mark]
				if err := flush(i); err != nil {
					return err
				}
				body = serve.AppendJSONStrings(body, cells[d*k:(d+1)*k])
			}
		}
		return flush(len(rows))
	}
	failed := c.gather(shards, func(shard int) error {
		err := sendRows(shard)
		if err != nil {
			replies[shard] = nil // a failed shard contributes nothing
		}
		return err
	})
	if len(failed) > 0 {
		c.partialFailures.Add(1)
		out.Partial = true
		if err := c.partialErr(failed); err != nil {
			return Rows{}, err
		}
	}

	// Hash-join the replies back: result row i of a reply extends every
	// input row in the group of the distinct row it came from.
	for _, shard := range shards {
		for _, rep := range replies[shard] {
			for _, f := range rep.resp.From {
				d := rep.sent[f]
				out.N += start[d+1] - start[d]
			}
		}
	}
	w, nf := len(in.Vars), len(st.fresh)
	out.Cells = make([]string, 0, out.N*(w+nf))
	for _, shard := range shards {
		for _, rep := range replies[shard] {
			for i, f := range rep.resp.From {
				d := rep.sent[f]
				for _, r := range members[start[d]:start[d+1]] {
					out.Cells = append(out.Cells, in.Cells[r*w:(r+1)*w]...)
					out.Cells = append(out.Cells, rep.resp.Cells[i*nf:(i+1)*nf]...)
				}
			}
		}
	}
	return out, nil
}

// checkBindReply validates a shard's reply against the request: the
// variables it claims to bind, the range of its from indexes, and every
// cell. A reply failing any of these is a failed shard.
func checkBindReply(resp *serve.BindResponse, fresh []core.Var, sent int) error {
	if len(resp.Vars) != len(fresh) {
		return fmt.Errorf("binds %d variables, want %d", len(resp.Vars), len(fresh))
	}
	for i, v := range fresh {
		if resp.Vars[i] != string(v) {
			return fmt.Errorf("binds ?%s where ?%s was asked", resp.Vars[i], v)
		}
	}
	if len(resp.Cells) != len(resp.From)*len(fresh) {
		return fmt.Errorf("%d cells for %d rows of %d", len(resp.Cells), len(resp.From), len(fresh))
	}
	for _, f := range resp.From {
		if f >= sent {
			return fmt.Errorf("from index %d for %d rows sent", f, sent)
		}
	}
	for _, cell := range resp.Cells {
		if err := checkWireTerm(cell); err != nil {
			return fmt.Errorf("bad term %q: %w", cell, err)
		}
	}
	return nil
}

// checkWireTerm accepts a cell only if it parses as a term and is that
// term's canonical form, because the executor reuses the string as join
// key and shard-hash input: "<a> " and "<a>" must not be two entities.
func checkWireTerm(s string) error {
	t, err := rdf.ParseTerm(s)
	if err != nil {
		return err
	}
	canonical := len(s) == len(t.Value)+2 // "<" value ">" or "_:" value
	if t.Kind == rdf.Literal {
		canonical = t.String() == s
	}
	if !canonical {
		return errors.New("not a canonical term")
	}
	return nil
}
