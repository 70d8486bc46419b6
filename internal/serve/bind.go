package serve

// POST /bind: the shard half of the router's set-at-a-time bind join.
//
// One request carries one triple pattern, the names of the pattern's
// variables that are already bound, and the distinct binding rows as a
// positional array; the reply carries, for every match of the pattern
// under some row, the index of that row and the terms of the variables
// the pattern newly binds:
//
//	-> {"pattern": ["?c", "<kb:locatedIn>", "?city"],
//	    "vars":    ["c"],
//	    "rows":    [["<kb:apple>"], ["<kb:microsoft>"]]}
//	<- {"vars": ["city"], "from": [0, 1],
//	    "rows": [["<kb:cupertino>"], ["<kb:redmond>"]]}
//
// Pattern terms are in kbquery syntax (core.ParsePatternTerm), cells in
// N-Triples syntax (rdf.ParseTerm / rdf.Term.String). A row of zero
// variables is the empty array, so the first step of a join is the same
// operation with "vars": [] and "rows": [[]]. Each row seeds the store's
// index matcher (core.Store.MatchFunc) directly: no per-row query, no
// result-cache entry, no maps. bindwire.go holds the codec.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// bindPos is one position of a compiled /bind pattern: a constant, a
// request column (in >= 0), or a column of the reply (out >= 0).
type bindPos struct {
	konst   rdf.Term
	in, out int
}

// compileBind resolves the request's pattern against its bound variable
// names and returns the per-position plan plus the variables the pattern
// newly binds, in pattern order.
func compileBind(req *bindRequest) (plan [3]bindPos, newVars []string, err error) {
	for i, v := range req.Vars {
		for _, u := range req.Vars[:i] {
			if u == v {
				return plan, nil, fmt.Errorf("vars: ?%s listed twice", v)
			}
		}
	}
	used := make([]bool, len(req.Vars))
	for i, s := range req.Pattern {
		pt, err := core.ParsePatternTerm(s)
		if err != nil {
			return plan, nil, err
		}
		plan[i] = bindPos{konst: pt.Const, in: -1, out: -1}
		if pt.Var == "" {
			continue
		}
		name := string(pt.Var)
		if col := slices.Index(req.Vars, name); col >= 0 {
			plan[i].in, used[col] = col, true
			continue
		}
		if plan[i].out = slices.Index(newVars, name); plan[i].out < 0 {
			plan[i].out = len(newVars)
			newVars = append(newVars, name)
		}
	}
	for col, ok := range used {
		if !ok {
			return plan, nil, fmt.Errorf("vars: ?%s does not occur in the pattern", req.Vars[col])
		}
	}
	return plan, newVars, nil
}

func (s *Server) handleBind(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"POST a JSON body"})
		return
	}
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), MaxRequestBytes)+bytes.MinRead))
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes)); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{"bad request body: " + err.Error()})
		return
	}
	req, err := parseBindRequest(body.Bytes())
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{"bad request body: " + err.Error()})
		return
	}
	plan, newVars, err := compileBind(req)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{err.Error()})
		return
	}
	terms := make([]rdf.Term, len(req.Cells))
	for i, cell := range req.Cells {
		t, err := rdf.ParseTerm(cell)
		if err == nil && t.IsZero() {
			// The zero term is the matcher's wildcard, never a binding.
			err = errors.New("empty IRI")
		}
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{fmt.Sprintf("bad term %q in row %d: %v", cell, i/len(req.Vars), err)})
			return
		}
		terms[i] = t
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	buf := bindBufs.Get().(*bindBuf)
	defer bindBufs.Put(buf)
	buf.from = AppendJSONStrings(append(buf.from[:0], `{"vars":`...), newVars)
	buf.from = append(buf.from, `,"from":[`...)
	buf.rows = append(buf.rows[:0], `],"rows":[`...)
	t0 := time.Now()
	err = s.bind(ctx, plan, len(newVars), terms, req.N, buf)
	s.lat.Observe(time.Since(t0))
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	// One buffer, one Write: the reply leaves in a single syscall.
	buf.from = append(append(buf.from, buf.rows...), ']', '}')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.from)))
	w.Write(buf.from)
}

// bindBuf holds the two halves of a /bind reply while the matcher fills
// them side by side: `{"vars":[…],"from":[…` and `],"rows":[…`. They are
// pooled because a join step's reply is tens of kilobytes that would
// otherwise be grown by doubling and dropped on every request.
type bindBuf struct{ from, rows []byte }

var bindBufs = sync.Pool{New: func() interface{} { return new(bindBuf) }}

// bind runs the compiled pattern once per request row, appending each
// match's row index to buf.from and its new terms to buf.rows.
func (s *Server) bind(ctx context.Context, plan [3]bindPos, width int, terms []rdf.Term, n int, buf *bindBuf) (err error) {
	k := len(terms) / max(n, 1)
	matches, emitted := 0, 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		row := terms[i*k : (i+1)*k]
		var seed [3]rdf.Term // unbound positions stay the zero term: the wildcard
		for j, ps := range plan {
			if seed[j] = ps.konst; ps.in >= 0 {
				seed[j] = row[ps.in]
			}
		}
		s.st.MatchFunc(rdf.Triple{S: seed[0], P: seed[1], O: seed[2]}, func(_ core.FactID, t rdf.Triple) bool {
			if matches++; matches&1023 == 0 {
				if err = ctx.Err(); err != nil {
					return false
				}
			}
			got := [3]rdf.Term{t.S, t.P, t.O}
			var out [3]rdf.Term
			set := 0
			for j, ps := range plan {
				switch {
				case ps.out < 0:
				case set&(1<<ps.out) == 0:
					out[ps.out], set = got[j], set|1<<ps.out
				case out[ps.out] != got[j]:
					return true // a variable repeated in the pattern met two terms
				}
			}
			if emitted++; emitted > 1 {
				buf.from, buf.rows = append(buf.from, ','), append(buf.rows, ',')
			}
			buf.from = strconv.AppendInt(buf.from, int64(i), 10)
			buf.rows = append(buf.rows, '[')
			for j := 0; j < width; j++ {
				if j > 0 {
					buf.rows = append(buf.rows, ',')
				}
				buf.rows = appendTermJSON(buf.rows, out[j])
			}
			buf.rows = append(buf.rows, ']')
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
