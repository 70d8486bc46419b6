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
// operation with "vars": [] and "rows": [[]], and a single pattern is a
// join of that one step. An optional "limit": N in the request stops the
// reply after N matches, counted across all rows (0 or no limit: all of
// them); the router sets it on a join's last step only, since a row an
// earlier step returns may still be filtered out. The pattern is compiled
// once into the matcher /query runs (core.Matcher) with the request's
// variables as its first slots, and each row seeds those slots: no
// per-row query, no result-cache entry, no maps. bindwire.go holds the
// codec.

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// compileBind validates the request's pattern against its bound variable
// names and compiles it with those names as the matcher's first slots.
func (s *Server) compileBind(req *bindRequest) (*core.Matcher, error) {
	var pts [3]core.PatternTerm
	for i, term := range req.Pattern {
		var err error
		if pts[i], err = core.ParsePatternTerm(term); err != nil {
			return nil, err
		}
	}
	p := core.Pattern{S: pts[0], P: pts[1], O: pts[2]}
	seeded := make([]core.Var, 0, len(req.Vars))
	for _, name := range req.Vars {
		v := core.Var(name)
		switch {
		case slices.Contains(seeded, v):
			return nil, fmt.Errorf("vars: ?%s listed twice", name)
		case name == "" || (v != p.S.Var && v != p.P.Var && v != p.O.Var):
			return nil, fmt.Errorf("vars: ?%s does not occur in the pattern", name)
		}
		seeded = append(seeded, v)
	}
	return s.st.Compile([]core.Pattern{p}, seeded...), nil
}

func (s *Server) handleBind(w http.ResponseWriter, r *http.Request) {
	req := readBody(w, r, parseBindRequest)
	if req == nil {
		return
	}
	m, err := s.compileBind(req)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{err.Error()})
		return
	}
	newVars := make([]string, 0, 3)
	for _, v := range m.Vars()[len(req.Vars):] {
		newVars = append(newVars, string(v))
	}
	terms := make([]rdf.Term, len(req.Cells))
	for i, cell := range req.Cells {
		t, err := rdf.ParseTerm(cell)
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
	err = bind(ctx, m, terms, req.N, req.Limit, buf)
	s.lat.Observe(time.Since(t0))
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	// One buffer, one Write: the reply leaves in a single syscall.
	buf.from = append(append(buf.from, buf.rows...), ']', '}')
	WriteRows(w, buf.from)
}

// bindBuf holds the two halves of a /bind reply while the matcher fills
// them side by side: `{"vars":[…],"from":[…` and `],"rows":[…`. They are
// pooled because a join step's reply is tens of kilobytes that would
// otherwise be grown by doubling and dropped on every request.
type bindBuf struct{ from, rows []byte }

var bindBufs = sync.Pool{New: func() interface{} { return new(bindBuf) }}

// bind runs the compiled pattern once per request row — n rows, row-major
// in terms, filling the matcher's first slots — appending each match's row
// index to buf.from and the terms of its other slots to buf.rows, until
// limit matches are written (0 = all).
func bind(ctx context.Context, m *core.Matcher, terms []rdf.Term, n, limit int, buf *bindBuf) error {
	k := len(terms) / max(n, 1)
	row := make([]rdf.Term, len(m.Vars()))
	i, emitted := 0, 0
	emit := func(row []rdf.Term) bool {
		if emitted++; emitted > 1 {
			buf.from, buf.rows = append(buf.from, ','), append(buf.rows, ',')
		}
		buf.from = strconv.AppendInt(buf.from, int64(i), 10)
		buf.rows = append(buf.rows, '[')
		for j, t := range row[k:] {
			if j > 0 {
				buf.rows = append(buf.rows, ',')
			}
			buf.rows = appendTermJSON(buf.rows, t)
		}
		buf.rows = append(buf.rows, ']')
		return limit == 0 || emitted < limit
	}
	for ; i < n && (limit == 0 || emitted < limit); i++ {
		copy(row, terms[i*k:(i+1)*k])
		if err := m.Match(ctx, row, 0, emit); err != nil {
			return err
		}
	}
	return nil
}
