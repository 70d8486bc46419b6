package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode"

	"kbharvest/internal/rdf"
)

// A minimal conjunctive query engine in the spirit of SPARQL basic graph
// patterns. The tutorial's target applications — "deep question answering
// and semantic search and analytics over entities and relations" (§1) —
// reduce to evaluating small joins over the KB; this engine powers the
// deepqa example and the kbquery tool.

// Var is a query variable. Variables are written "?name".
type Var string

// Pattern is one triple pattern whose positions are either constants
// (rdf.Term) or variables (Var), encoded as strings starting with '?'.
type Pattern struct {
	S, P, O PatternTerm
}

// PatternTerm is one position of a Pattern: a constant or a variable.
type PatternTerm struct {
	Const rdf.Term
	Var   Var // non-empty means variable
}

// PVar returns a variable pattern term.
func PVar(name string) PatternTerm { return PatternTerm{Var: Var(name)} }

// PIRI returns a constant IRI pattern term.
func PIRI(iri string) PatternTerm { return PatternTerm{Const: rdf.NewIRI(iri)} }

// PTerm returns a constant pattern term.
func PTerm(t rdf.Term) PatternTerm { return PatternTerm{Const: t} }

// ParsePatternTerm parses "?x" as a variable, "<iri>" or a bare token as an
// IRI, and a double-quoted string as a plain literal. The empty IRI "<>"
// is an error.
func ParsePatternTerm(s string) (PatternTerm, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return PatternTerm{}, fmt.Errorf("core: empty pattern term")
	case strings.HasPrefix(s, "?"):
		if len(s) == 1 {
			return PatternTerm{}, fmt.Errorf("core: empty variable name")
		}
		return PVar(s[1:]), nil
	case s == "<>":
		// The empty IRI is the zero term, which a pattern reads as a
		// wildcard: accepted, "?s p <>" would match every object.
		return PatternTerm{}, fmt.Errorf("core: empty IRI <>")
	case strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">"):
		return PIRI(s[1 : len(s)-1]), nil
	case strings.HasPrefix(s, `"`) || strings.HasSuffix(s, `"`):
		// A term touching a double quote must be a complete literal;
		// a lone '"' or an unterminated `"abc` is a parse error, not an
		// IRI whose name happens to contain a quote. Full N-Triples
		// literal syntax is accepted (escapes, @lang, ^^<datatype>), so
		// a term serialized with rdf.Term.String round-trips through a
		// pattern — the property the scatter/gather wire protocol
		// (internal/shardkb) relies on for a pattern's constants.
		if strings.HasPrefix(s, `"`) {
			if t, err := rdf.ParseTerm(s); err == nil && t.IsLiteral() {
				return PTerm(t), nil
			}
		}
		return PatternTerm{}, fmt.Errorf("core: unterminated or bare quote in literal %q", s)
	default:
		return PIRI(s), nil
	}
}

// ParsePattern parses an "s p o" pattern line, with an optional closing
// " ." as in N-Triples.
func ParsePattern(line string) (Pattern, error) {
	fields := splitPattern(line)
	if n := len(fields); n > 0 && fields[n-1] == "." {
		fields = fields[:n-1]
	}
	if len(fields) != 3 {
		return Pattern{}, fmt.Errorf("core: pattern needs 3 terms, got %d in %q", len(fields), line)
	}
	s, err := ParsePatternTerm(fields[0])
	if err != nil {
		return Pattern{}, err
	}
	p, err := ParsePatternTerm(fields[1])
	if err != nil {
		return Pattern{}, err
	}
	o, err := ParsePatternTerm(fields[2])
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{S: s, P: p, O: o}, nil
}

// splitPattern cuts a pattern line into its terms. Blanks separate terms
// except inside a double-quoted literal, which runs to its closing
// unescaped quote and on through any @lang or ^^<datatype> suffix, so the
// blanks inside a literal reach ParsePatternTerm as they were written.
func splitPattern(line string) []string {
	var out []string
	for {
		line = strings.TrimLeftFunc(line, unicode.IsSpace)
		if line == "" {
			return out
		}
		end := 0
		if line[0] == '"' {
			for end = 1; end < len(line) && line[end] != '"'; end++ {
				if line[end] == '\\' {
					end++
				}
			}
		}
		// The rest of the term runs to the next blank; an unterminated
		// literal has already run to (or, on an escape, past) the end.
		end = min(end, len(line))
		if i := strings.IndexFunc(line[end:], unicode.IsSpace); i >= 0 {
			end += i
		} else {
			end = len(line)
		}
		out = append(out, line[:end])
		line = line[end:]
	}
}

// Binding maps variable names to terms.
type Binding map[Var]rdf.Term

// Query evaluates a conjunction of patterns and returns all bindings.
// It is QueryFunc without streaming: no cancellation, no limit.
func (st *Store) Query(patterns []Pattern) []Binding {
	var out []Binding
	st.QueryFunc(context.Background(), patterns, 0, func(b Binding) bool {
		out = append(out, b)
		return true
	})
	return out
}

// QueryFunc streams the bindings of a conjunctive query to fn. It stops
// early when fn returns false, when limit bindings have been emitted
// (limit <= 0 means unlimited), or when ctx is cancelled — in which case
// the context's error is returned. It is Matcher.Match from an empty row,
// with a Binding built for each row that reaches fn.
func (st *Store) QueryFunc(ctx context.Context, patterns []Pattern, limit int, fn func(Binding) bool) error {
	m := st.Compile(patterns)
	return m.Match(ctx, make([]rdf.Term, len(m.vars)), limit, func(row []rdf.Term) bool {
		b := make(Binding, len(row))
		for i, v := range m.vars {
			b[v] = row[i]
		}
		return fn(b)
	})
}

// PatternEstimate returns the planner's cost probe for one pattern: the
// exact number of its matches under binding b, one index map read.
// Variables bound in b count as constants, genuinely unbound variables as
// wildcards.
func (st *Store) PatternEstimate(p Pattern, b Binding) int {
	m := st.Compile([]Pattern{p})
	var ids [3]ID // one pattern has at most three slots
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, v := range m.vars {
		ids[i] = st.idOf(b[v])
	}
	_, cost := m.probe(&m.pats[0], ids[:len(m.vars)])
	return cost
}

// Matcher is a conjunction compiled for evaluation: every pattern position
// is a constant (the zero term being the wildcard) or a slot of one row of
// terms, one slot per distinct variable, where a zero term means "not
// bound yet". It is the store's only join executor: QueryFunc runs it from
// an empty row, and kbserve's /bind runs a one-pattern Matcher once per
// binding row a join step sends, seeding the slots that row binds.
//
// Planning works on dictionary IDs, never on terms: Compile resolves the
// constants, Match resolves the seeded slots once, and a slot a join step
// binds takes the ID the step read from the index. The store is
// append-only, so an ID once resolved never changes.
type Matcher struct {
	st   *Store
	vars []Var
	pats []slotPattern
}

// slotPattern is a compiled pattern: subject, predicate, object.
type slotPattern [3]struct {
	konst rdf.Term // the position's constant when slot < 0
	id    ID       // konst's ID (see Store.idOf), resolved by Compile
	slot  int
}

// unknownID stands for a term the dictionary had not interned when it was
// resolved. A real ID equals it only at the (2^32-1)st term, the end of
// the 32-bit ID space.
const unknownID = ^ID(0)

// idOf is the ID the matcher reads a term as: 0 for the zero term (a
// wildcard, or an unbound slot), unknownID for a term never interned.
func (st *Store) idOf(t rdf.Term) ID {
	id, ok := st.lookup(t)
	if !ok {
		return unknownID
	}
	return id
}

// Compile resolves the patterns' variables to slots — the seeded variables
// first, in the order given, then the others in order of first occurrence
// — and their constants to dictionary IDs.
func (st *Store) Compile(patterns []Pattern, seeded ...Var) *Matcher {
	m := &Matcher{st: st, vars: append([]Var(nil), seeded...), pats: make([]slotPattern, len(patterns))}
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, p := range patterns {
		for j, pt := range [3]PatternTerm{p.S, p.P, p.O} {
			m.pats[i][j].konst, m.pats[i][j].slot = pt.Const, -1
			if pt.Var == "" {
				m.pats[i][j].id = st.idOf(pt.Const)
				continue
			}
			slot := slices.Index(m.vars, pt.Var)
			if slot < 0 {
				slot = len(m.vars)
				m.vars = append(m.vars, pt.Var)
			}
			m.pats[i][j].slot = slot
		}
	}
	return m
}

// Vars returns the variable of each slot of the rows Match works on.
func (m *Matcher) Vars() []Var { return m.vars }

// probe is the planner's cost probe: the dictionary IDs p reads under the
// ID row (0 for a position that is free) and the exact number of its
// matches, one index map read. A term the dictionary has never seen costs
// 0: nothing can match. Only a constant still unknown at Compile is looked
// up again, since a write may have interned it since.
func (m *Matcher) probe(p *slotPattern, rowIDs []ID) (ids [3]ID, cost int) {
	for j, ps := range p {
		id := ps.id
		if ps.slot >= 0 {
			id = rowIDs[ps.slot]
		} else if id == unknownID {
			id = m.st.idOf(ps.konst)
		}
		if id == unknownID {
			return ids, 0
		}
		ids[j] = id
	}
	return ids, m.st.estimateEnc(ids[0], ids[1], ids[2])
}

// Match streams every way of filling row's unbound slots that satisfies
// all the patterns, depth first, calling fn with row itself each time: fn
// must copy what it keeps, and row is back as it was passed when Match
// returns. It stops early when fn returns false, when limit rows have
// been emitted (limit <= 0 means unlimited), or when ctx is cancelled —
// in which case the context's error is returned.
//
// Join order is cardinality-driven and chosen per branch: before each
// step the engine probes every remaining pattern's exact match count under
// the row so far — one index map read each — and executes the cheapest
// pattern next. A pattern that estimates to zero matches prunes its branch
// immediately, so constants the dictionary has never seen short-circuit
// the whole conjunction. The terms row's seeded slots are resolved to IDs
// once, here: a seeded term interned by a write during Match is not seen.
func (m *Matcher) Match(ctx context.Context, row []rdf.Term, limit int, fn func(row []rdf.Term) bool) error {
	r := matchRun{m: m, ctx: ctx, row: row, limit: limit, fn: fn}
	var few [4]*slotPattern // keeps the usual conjunction's order off the heap
	rest := few[:0]
	for i := range m.pats {
		rest = append(rest, &m.pats[i])
	}
	var fewIDs [8]ID // the ID row, off the heap for up to eight slots
	rowIDs := fewIDs[:0]
	m.st.mu.RLock()
	for _, t := range row {
		rowIDs = append(rowIDs, m.st.idOf(t))
	}
	m.st.mu.RUnlock()
	// step returns false only when cut short: by fn/limit (stopped) or by
	// cancellation. A context expiring after the traversal already
	// completed must not discard the fully-computed result.
	if !r.step(rest, rowIDs) && !r.stopped {
		return ctx.Err()
	}
	return nil
}

// matchRun is the state of one Match call.
type matchRun struct {
	m       *Matcher
	ctx     context.Context
	row     []rdf.Term
	limit   int
	fn      func([]rdf.Term) bool
	emitted int
	stopped bool // fn or the limit ended the traversal
}

// step extends the row by the cheapest pattern of rest and recurses on the
// others; false halts the traversal. rowIDs[i] is the dictionary ID of
// r.row[i] (0 while unbound). It is a parameter, not a field of r, so that
// it can stay on Match's stack.
func (r *matchRun) step(rest []*slotPattern, rowIDs []ID) bool {
	if r.ctx.Err() != nil {
		return false
	}
	if len(rest) == 0 {
		r.emitted++
		if !r.fn(r.row) || (r.limit > 0 && r.emitted >= r.limit) {
			r.stopped = true
			return false
		}
		return true
	}
	best, pids, ets, terms := r.m.cheapest(rest, rowIDs)
	if len(ets) == 0 {
		return true // some pattern cannot match under this row: prune the branch
	}
	// Swap the chosen pattern to the front and recurse on rest[1:];
	// restore afterwards so sibling branches see the original order.
	rest[0], rest[best] = rest[best], rest[0]
	p := rest[0]
	ok := true
match:
	for _, et := range ets {
		got := [3]ID{et.s, et.p, et.o}
		for j, ps := range p {
			if pids[j] != 0 || ps.slot < 0 {
				continue // a constant, a wildcard, or a slot bound before this step
			}
			for k := range p[:j] {
				if p[k].slot == ps.slot && got[k] != got[j] {
					continue match // a variable repeated in the pattern met two terms
				}
			}
			r.row[ps.slot], rowIDs[ps.slot] = terms.term(got[j]), got[j]
		}
		if ok = r.step(rest[1:], rowIDs); !ok {
			break
		}
	}
	for j, ps := range p {
		if pids[j] == 0 && ps.slot >= 0 {
			r.row[ps.slot], rowIDs[ps.slot] = rdf.Term{}, 0
		}
	}
	rest[0], rest[best] = rest[best], rest[0]
	return ok
}

// cheapest probes every pattern of rest under the ID row and gathers the
// matches of the cheapest one, with the dictionary IDs it read them by,
// under one shared hold of the store's lock; terms decodes the matches
// after the lock is released. No matches means a pattern cannot match.
func (m *Matcher) cheapest(rest []*slotPattern, rowIDs []ID) (best int, pids [3]ID, ets []encTriple, terms termList) {
	st := m.st
	st.mu.RLock()
	defer st.mu.RUnlock()
	bestCost := int(^uint(0) >> 1)
	for i, p := range rest {
		if cand, cost := m.probe(p, rowIDs); cost < bestCost {
			best, bestCost, pids = i, cost, cand
		}
	}
	if bestCost == 0 {
		return best, pids, nil, nil
	}
	_, ets = st.matchEnc(pids[0], pids[1], pids[2])
	return best, pids, ets, st.dict.terms
}

// QueryStrings evaluates patterns written as "s p o" lines (see
// ParsePattern) — the format the kbquery tool accepts.
func (st *Store) QueryStrings(lines []string) ([]Binding, error) {
	patterns := make([]Pattern, 0, len(lines))
	for _, l := range lines {
		p, err := ParsePattern(l)
		if err != nil {
			return nil, err
		}
		patterns = append(patterns, p)
	}
	return st.Query(patterns), nil
}

// SortBindings orders bindings deterministically by the given variables
// (useful for tests and stable tool output).
func SortBindings(bs []Binding, vars ...Var) {
	sort.Slice(bs, func(i, j int) bool {
		for _, v := range vars {
			if c := bs[i][v].Compare(bs[j][v]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
