package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Writer serializes triples in N-Triples syntax, one statement per line.
type Writer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one triple. Errors are sticky: after the first failure all
// subsequent writes are no-ops returning the same error.
func (w *Writer) Write(t Triple) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.WriteString(t.String()); err != nil {
		w.err = err
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of triples successfully written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader parses N-Triples input line by line. It accepts the subset of the
// grammar this package's Writer emits (IRIs, blank nodes, plain, typed and
// language-tagged literals) plus comment and blank lines.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Reader{s: s}
}

// Read returns the next triple, or io.EOF when input is exhausted.
func (r *Reader) Read() (Triple, error) {
	for r.s.Scan() {
		r.line++
		line := strings.TrimSpace(r.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTriple(line)
		if err != nil {
			return Triple{}, fmt.Errorf("rdf: line %d: %w", r.line, err)
		}
		return t, nil
	}
	if err := r.s.Err(); err != nil {
		return Triple{}, fmt.Errorf("rdf: scan: %w", err)
	}
	return Triple{}, io.EOF
}

// ReadAll consumes the reader and returns every triple.
func ReadAll(r io.Reader) ([]Triple, error) {
	rd := NewReader(r)
	var out []Triple
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// WriteAll writes every triple to w in N-Triples syntax.
func WriteAll(w io.Writer, triples []Triple) error {
	nw := NewWriter(w)
	for _, t := range triples {
		if err := nw.Write(t); err != nil {
			return err
		}
	}
	return nw.Flush()
}

// ParseTerm parses one term in N-Triples syntax — the format Term.String
// produces — so serialized terms (IRIs, plain/lang-tagged/typed literals,
// blank nodes) round-trip through a single string. Trailing content after
// the term is an error, and so is the empty IRI "<>": an accepted term is
// never the zero Term.
func ParseTerm(s string) (Term, error) {
	p := &parser{in: s}
	t, err := p.term()
	if err != nil {
		return Term{}, err
	}
	p.skipSpace()
	if p.pos < len(p.in) {
		return Term{}, fmt.Errorf("trailing content %q after term", p.in[p.pos:])
	}
	return t, nil
}

// ParseTriple parses a single N-Triples statement line (with or without the
// trailing " ."). Like ParseTerm, it rejects the empty IRI "<>".
func ParseTriple(line string) (Triple, error) {
	p := &parser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	if !pr.IsIRI() {
		return Triple{}, fmt.Errorf("predicate must be an IRI, got %s", pr)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '.' {
		p.pos++
	}
	p.skipSpace()
	if p.pos < len(p.in) {
		return Triple{}, fmt.Errorf("trailing content %q", p.in[p.pos:])
	}
	return Triple{S: s, P: pr, O: o}, nil
}

type parser struct {
	in  string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return Term{}, fmt.Errorf("unexpected end of statement")
	}
	switch p.in[p.pos] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	}
	return Term{}, fmt.Errorf("unexpected character %q at offset %d", p.in[p.pos], p.pos)
}

func (p *parser) iri() (Term, error) {
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	if end == 1 {
		// "<>" would be the zero Term, which the store reads as a wildcard.
		return Term{}, fmt.Errorf("empty IRI")
	}
	iri := p.in[p.pos+1 : p.pos+end]
	p.pos += end + 1
	return NewIRI(iri), nil
}

func (p *parser) blank() (Term, error) {
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return Term{}, fmt.Errorf("malformed blank node")
	}
	start := p.pos + 2
	end := start
	for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
		end++
	}
	if end == start {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	label := p.in[start:end]
	p.pos = end
	return NewBlank(label), nil
}

func (p *parser) literal() (Term, error) {
	// Find the closing quote, honoring backslash escapes.
	i := p.pos + 1
	for i < len(p.in) {
		if p.in[i] == '\\' {
			i += 2
			continue
		}
		if p.in[i] == '"' {
			break
		}
		i++
	}
	if i >= len(p.in) {
		return Term{}, fmt.Errorf("unterminated literal")
	}
	lex := unescapeLiteral(p.in[p.pos+1 : i])
	p.pos = i + 1
	// Optional language tag or datatype.
	if p.pos < len(p.in) && p.in[p.pos] == '@' {
		start := p.pos + 1
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		if end == start {
			return Term{}, fmt.Errorf("empty language tag")
		}
		lang := p.in[start:end]
		p.pos = end
		return NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^<") {
		p.pos += 2
		dt, err := p.iri()
		if err != nil {
			return Term{}, fmt.Errorf("datatype: %w", err)
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}
