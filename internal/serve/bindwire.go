package serve

// The wire codec of the tier's data requests: the /query, /estimate and
// /bind bodies and the /bind reply share one grammar and are parsed and
// written by hand, because a join step moves thousands of cells and
// reflection-driven encoding/json would cost more than matching them does.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"kbharvest/internal/rdf"
)

// bindRequest is the decoded POST /bind body.
type bindRequest struct {
	Pattern [3]string // subject, predicate, object in pattern syntax
	Vars    []string  // the pattern's variables bound by the rows, one per column
	Cells   []string  // N row-major rows of len(Vars) terms each
	N       int       // row count, explicit because a zero-width row has no cells
	Limit   int       // matches to return across all rows (0 = all)
}

// BindResponse is the decoded POST /bind reply: result row i extends
// request row From[i] with Cells[i*len(Vars):(i+1)*len(Vars)].
type BindResponse struct {
	Vars  []string // the variables the pattern newly binds, in pattern order
	From  []int
	Cells []string
}

// bindBody is the union of the bodies, as parsed.
type bindBody struct {
	pattern, patterns, vars, cells []string
	from                           []int
	limit                          int
	n, width                       int
}

// parseQueryRequest decodes and shape-checks a /query or /estimate body:
// a non-empty "patterns" and an optional "limit".
func parseQueryRequest(data []byte) (*QueryRequest, error) {
	b, err := parseBindBody(data, "patterns", "limit")
	switch {
	case err != nil:
		return nil, err
	case len(b.patterns) == 0:
		return nil, errors.New("no patterns")
	}
	return &QueryRequest{Patterns: b.patterns, Limit: b.limit}, nil
}

// parseBindRequest decodes and shape-checks a /bind request body.
func parseBindRequest(data []byte) (*bindRequest, error) {
	b, err := parseBindBody(data, "pattern", "vars", "limit", "rows")
	switch {
	case err != nil:
		return nil, err
	case len(b.pattern) != 3:
		return nil, fmt.Errorf("pattern needs 3 terms, got %d", len(b.pattern))
	}
	req := &bindRequest{Vars: b.vars, Cells: b.cells, N: b.n, Limit: b.limit}
	copy(req.Pattern[:], b.pattern)
	return req, nil
}

// ParseBindResponse decodes and shape-checks a /bind reply body.
func ParseBindResponse(data []byte) (*BindResponse, error) {
	b, err := parseBindBody(data, "vars", "from", "rows")
	switch {
	case err != nil:
		return nil, err
	case len(b.from) != b.n:
		return nil, fmt.Errorf("%d from indexes for %d rows", len(b.from), b.n)
	}
	return &BindResponse{Vars: b.vars, From: b.from, Cells: b.cells}, nil
}

// parseBindBody reads one JSON object whose keys, in any order, are among
// the given ones: pattern, patterns, vars, from, limit, rows. It is strict
// — keys are case-sensitive; any other key, ragged rows, rows not as wide
// as vars, trailing content and a value of the wrong type are errors,
// never panics — and keeps the bytes of a string as sent.
func parseBindBody(data []byte, keys ...string) (bindBody, error) {
	var b bindBody
	c := cursor{s: string(data)} // one copy; unescaped strings are slices of it
	if !c.eat('{') {
		return b, c.errorf("want an object")
	}
	for first := true; !c.eat('}'); first = false {
		if !first && !c.eat(',') {
			return b, c.errorf("want ',' or '}'")
		}
		key, err := c.str()
		if err != nil {
			return b, err
		}
		if !c.eat(':') {
			return b, c.errorf("want ':'")
		}
		if !slices.Contains(keys, key) {
			return b, c.errorf("unexpected key %q", key)
		}
		switch key {
		case "pattern":
			b.pattern, err = c.strs(make([]string, 0, 3))
		case "patterns":
			b.patterns, err = c.strs(make([]string, 0, 4))
		case "vars":
			b.vars, err = c.strs(make([]string, 0, 3))
		case "from":
			b.from, err = c.ints()
		case "limit":
			b.limit, err = c.uint()
		case "rows":
			err = c.rows(&b)
		}
		if err != nil {
			return b, err
		}
	}
	if c.ws(); c.i != len(c.s) {
		return b, c.errorf("data after the JSON body")
	}
	if b.n > 0 && b.width != len(b.vars) {
		return b, fmt.Errorf("rows are %d wide for %d vars", b.width, len(b.vars))
	}
	return b, nil
}

// cursor is a minimal JSON reader over the shapes the bodies use:
// strings, non-negative integers and arrays of them.
type cursor struct {
	s string
	i int
}

func (c *cursor) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("body offset %d: %s", c.i, fmt.Sprintf(format, args...))
}

func (c *cursor) ws() {
	for c.i < len(c.s) {
		switch c.s[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes b if it is next.
func (c *cursor) eat(b byte) bool {
	c.ws()
	if c.i < len(c.s) && c.s[c.i] == b {
		c.i++
		return true
	}
	return false
}

// str reads one JSON string. Without escapes it is a slice of the body.
func (c *cursor) str() (string, error) {
	if !c.eat('"') {
		return "", c.errorf("want a string")
	}
	start := c.i
	for c.i < len(c.s) {
		switch ch := c.s[c.i]; {
		case ch == '"':
			c.i++
			return c.s[start : c.i-1], nil
		case ch == '\\':
			return c.escaped(start)
		case ch < 0x20:
			return "", c.errorf("control character in string")
		default:
			c.i++
		}
	}
	return "", c.errorf("unterminated string")
}

// escaped finishes str for a string holding at least one escape; c.i is
// at the first backslash.
func (c *cursor) escaped(start int) (string, error) {
	buf := append(make([]byte, 0, 2*(c.i-start)+16), c.s[start:c.i]...)
	for c.i < len(c.s) {
		ch := c.s[c.i]
		switch {
		case ch == '"':
			c.i++
			return string(buf), nil
		case ch < 0x20:
			return "", c.errorf("control character in string")
		case ch != '\\':
			buf = append(buf, ch)
			c.i++
			continue
		}
		if c.i+1 >= len(c.s) {
			break
		}
		c.i += 2
		switch e := c.s[c.i-1]; e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := c.hex4()
			if !ok {
				return "", c.errorf("bad \\u escape")
			}
			if utf16.IsSurrogate(r) {
				// A high surrogate must be followed by an escaped low one;
				// a lone half decodes to U+FFFD as encoding/json does.
				save := c.i
				r2, ok := rune(0), false
				if c.i+1 < len(c.s) && c.s[c.i] == '\\' && c.s[c.i+1] == 'u' {
					c.i += 2
					r2, ok = c.hex4()
				}
				if dec := utf16.DecodeRune(r, r2); ok && dec != utf8.RuneError {
					r = dec
				} else {
					r, c.i = utf8.RuneError, save
				}
			}
			buf = utf8.AppendRune(buf, r)
		default:
			return "", c.errorf("bad escape \\%c", e)
		}
	}
	return "", c.errorf("unterminated string")
}

func (c *cursor) hex4() (rune, bool) {
	if c.i+4 > len(c.s) {
		return 0, false
	}
	v, err := strconv.ParseUint(c.s[c.i:c.i+4], 16, 16)
	if err != nil {
		return 0, false
	}
	c.i += 4
	return rune(v), true
}

// elems reads an array, calling elem with the cursor at each element.
func (c *cursor) elems(elem func() error) error {
	if !c.eat('[') {
		return c.errorf("want an array")
	}
	for first := true; !c.eat(']'); first = false {
		if !first && !c.eat(',') {
			return c.errorf("want ',' or ']'")
		}
		if err := elem(); err != nil {
			return err
		}
	}
	return nil
}

// strs reads an array of strings, appending to dst.
func (c *cursor) strs(dst []string) ([]string, error) {
	err := c.elems(func() error {
		s, err := c.str()
		dst = append(dst, s)
		return err
	})
	return dst, err
}

// uint reads one non-negative integer of at most 2^31-1, in JSON's form:
// no sign, no leading zero, no fraction or exponent.
func (c *cursor) uint() (int, error) {
	c.ws()
	start, v := c.i, 0
	for c.i < len(c.s) && c.s[c.i] >= '0' && c.s[c.i] <= '9' {
		if v = v*10 + int(c.s[c.i]-'0'); v > math.MaxInt32 {
			return 0, c.errorf("integer out of range")
		}
		c.i++
	}
	switch {
	case c.i == start:
		return 0, c.errorf("want a non-negative integer")
	case c.s[start] == '0' && c.i > start+1:
		return 0, c.errorf("leading zero")
	}
	return v, nil
}

// ints reads an array of non-negative integers; the result is non-nil.
func (c *cursor) ints() ([]int, error) {
	out := []int{}
	if end := strings.IndexByte(c.s[c.i:], ']'); end > 0 {
		out = make([]int, 0, strings.Count(c.s[c.i:c.i+end], ",")+1)
	}
	err := c.elems(func() error {
		v, err := c.uint()
		out = append(out, v)
		return err
	})
	return out, err
}

// rows reads the array of positional rows into b.cells, all of one width.
// A repeated "rows" key replaces the earlier rows, as in encoding/json.
func (c *cursor) rows(b *bindBody) error {
	// Every cell is a quoted string, so the quotes ahead bound the cells.
	b.cells, b.n, b.width = make([]string, 0, strings.Count(c.s[c.i:], `"`)/2), 0, 0
	return c.elems(func() error {
		before := len(b.cells)
		var err error
		if b.cells, err = c.strs(b.cells); err != nil {
			return err
		}
		if w := len(b.cells) - before; b.n == 0 {
			b.width = w
		} else if w != b.width {
			return c.errorf("ragged rows: row %d is %d wide, row 0 is %d", b.n, w, b.width)
		}
		b.n++
		return nil
	})
}

// appendJSONString appends s as a JSON string literal. Only what JSON
// requires is escaped (quote, backslash, control characters), which is
// also what WriteJSON's encoder emits for valid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONEscaped(dst, s)
	return append(dst, '"')
}

func appendJSONEscaped(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= 0x20 && ch != '"' && ch != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		start = i + 1
		switch ch {
		case '"', '\\':
			dst = append(dst, '\\', ch)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[ch>>4], hex[ch&0xf])
		}
	}
	return append(dst, s[start:]...)
}

// appendTermJSON appends the JSON string holding t's N-Triples form. An
// IRI — nearly every cell of a join — is written without building the
// intermediate string.
func appendTermJSON(dst []byte, t rdf.Term) []byte {
	if t.Kind != rdf.IRI {
		return appendJSONString(dst, t.String())
	}
	dst = append(dst, '"', '<')
	dst = appendJSONEscaped(dst, t.Value)
	return append(dst, '>', '"')
}

// AppendJSONStrings appends ss as a JSON array of strings.
func AppendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}
