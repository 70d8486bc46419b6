package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

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
// IRI, and a double-quoted string as a plain literal.
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

// ParsePattern parses a whitespace-separated "s p o" pattern line.
func ParsePattern(line string) (Pattern, error) {
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(line), " ."))
	// Literals may contain spaces; re-join quoted fields.
	fields = rejoinQuoted(fields)
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

func rejoinQuoted(fields []string) []string {
	var out []string
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if strings.HasPrefix(f, `"`) && !strings.HasSuffix(f, `"`) {
			j := i + 1
			for ; j < len(fields); j++ {
				f += " " + fields[j]
				if strings.HasSuffix(fields[j], `"`) {
					break
				}
			}
			i = j
		}
		out = append(out, f)
	}
	return out
}

// Binding maps variable names to terms.
type Binding map[Var]rdf.Term

func (b Binding) clone() Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

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
// the context's error is returned.
//
// Join order is cardinality-driven and chosen per branch: before each
// step the engine probes the index posting sizes every remaining pattern
// would read under the current binding (PatternEstimate) and executes the
// cheapest pattern next. A pattern that estimates to zero matches prunes
// its branch immediately — estimates are upper bounds — so constants the
// dictionary has never seen short-circuit the whole conjunction.
func (st *Store) QueryFunc(ctx context.Context, patterns []Pattern, limit int, fn func(Binding) bool) error {
	remaining := append([]Pattern(nil), patterns...)
	emitted := 0
	stopped := false
	var step func(b Binding, rest []Pattern) bool // false halts the traversal
	step = func(b Binding, rest []Pattern) bool {
		if ctx.Err() != nil {
			return false
		}
		if len(rest) == 0 {
			emitted++
			if !fn(b) {
				stopped = true
				return false
			}
			if limit > 0 && emitted >= limit {
				stopped = true
				return false
			}
			return true
		}
		best, bestCost := 0, int(^uint(0)>>1)
		for i, p := range rest {
			if c := st.PatternEstimate(p, b); c < bestCost {
				best, bestCost = i, c
			}
		}
		if bestCost == 0 {
			return true // some pattern cannot match under b: prune branch
		}
		// Swap the chosen pattern to the front and recurse on rest[1:];
		// restore afterwards so sibling branches see the original order.
		rest[0], rest[best] = rest[best], rest[0]
		ok := true
		st.matchPattern(rest[0], b, func(nb Binding) bool {
			ok = step(nb, rest[1:])
			return ok
		})
		rest[0], rest[best] = rest[best], rest[0]
		return ok
	}
	completed := step(make(Binding), remaining)
	// step returns false only when cut short: by fn/limit (stopped) or by
	// cancellation. A context expiring after the traversal already
	// completed must not discard the fully-computed result.
	if !completed && !stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// PatternEstimate returns the planner's cost probe for one pattern: the
// index-cardinality upper bound on its matches under binding b. Variables
// bound in b count as constants, genuinely unbound variables as
// wildcards; tombstoned facts still sitting in postings are counted until
// compaction prunes them. A zero estimate is exact — the pattern cannot
// match.
func (st *Store) PatternEstimate(p Pattern, b Binding) int {
	var ids [3]ID
	for i, pt := range [3]PatternTerm{p.S, p.P, p.O} {
		t := pt.Const
		if pt.Var != "" {
			bt, ok := b[pt.Var]
			if !ok {
				continue // unbound variable: wildcard
			}
			t = bt
		} else if t.IsZero() {
			continue // explicit wildcard position
		}
		id, ok := st.dict.lookup(t)
		if !ok {
			return 0
		}
		ids[i] = id
	}
	return st.estimateEnc(ids[0], ids[1], ids[2])
}

// matchPattern streams the bindings extending b that satisfy p, stopping
// early when emit returns false.
func (st *Store) matchPattern(p Pattern, b Binding, emit func(Binding) bool) {
	resolve := func(pt PatternTerm) (rdf.Term, Var) {
		if pt.Var == "" {
			return pt.Const, ""
		}
		if t, ok := b[pt.Var]; ok {
			return t, ""
		}
		return rdf.Term{}, pt.Var
	}
	sc, sv := resolve(p.S)
	pc, pv := resolve(p.P)
	oc, ov := resolve(p.O)
	st.MatchFunc(rdf.Triple{S: sc, P: pc, O: oc}, func(_ FactID, t rdf.Triple) bool {
		nb := b.clone()
		if sv != "" {
			nb[sv] = t.S
		}
		if pv != "" {
			if sv == pv && nb[sv] != t.P {
				return true
			}
			nb[pv] = t.P
		}
		if ov != "" {
			if (sv == ov && nb[sv] != t.O) || (pv == ov && nb[pv] != t.O) {
				return true
			}
			nb[ov] = t.O
		}
		return emit(nb)
	})
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
