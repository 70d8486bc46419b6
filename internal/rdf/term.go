// Package rdf implements the RDF-style SPO (subject-predicate-object) data
// model that today's knowledge bases use to represent their content
// (tutorial §2, "Digital Knowledge"). It provides IRIs, typed and
// language-tagged literals, triples, prefix handling, and an N-Triples
// style reader/writer.
//
// The model is deliberately minimal: everything a knowledge base needs to
// state facts like
//
//	yago:Steve_Jobs rdf:type yago:ComputerPioneer .
//	yago:Steve_Jobs yago:bornOnDate "1955-02-24"^^xsd:date .
//	yago:Steve_Jobs rdfs:label "Steve Jobs"@en .
//
// and nothing more.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms this package models.
type TermKind uint8

const (
	// IRI identifies an entity, class, or relation.
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) string value.
	Literal
	// Blank is an anonymous node, used for reified fact identifiers.
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	}
	return fmt.Sprintf("TermKind(%d)", uint8(k))
}

// Term is one RDF term: an IRI, a literal, or a blank node.
//
// The zero Term is the empty IRI, which is never valid in a triple; use
// NewIRI, NewLiteral, and friends to build terms.
type Term struct {
	// Kind says which of the three term kinds this is.
	Kind TermKind
	// Value is the IRI string, the literal lexical form, or the blank
	// node label, depending on Kind.
	Value string
	// Lang is the language tag of a language-tagged literal ("en", "de");
	// empty otherwise.
	Lang string
	// Datatype is the datatype IRI of a typed literal
	// (e.g. "xsd:date"); empty for plain and language-tagged literals.
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal such as "Steve Jobs"@en.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a typed literal such as "1955-02-24"^^xsd:date.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node with the given label (without the "_:"
// prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal of any flavor.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsZero reports whether the term is the zero value (empty IRI), which is
// used as a wildcard in triple patterns.
func (t Term) IsZero() bool {
	return t.Kind == IRI && t.Value == "" && t.Lang == "" && t.Datatype == ""
}

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool { return t == u }

// String renders the term in N-Triples surface syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	}
	return fmt.Sprintf("?%d?", t.Kind)
}

// Compare orders terms: by kind, then value, then language, then datatype.
// It returns -1, 0, or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Lang, u.Lang); c != 0 {
		return c
	}
	return strings.Compare(t.Datatype, u.Datatype)
}

// escapeLiteral and unescapeLiteral work byte by byte — every character
// they treat specially is ASCII — so a value that is not valid UTF-8 comes
// back with the bytes it went out with.
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeLiteral(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	esc := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !esc {
			if c == '\\' {
				esc = true
			} else {
				b.WriteByte(c)
			}
			continue
		}
		switch c {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		default:
			b.WriteByte(c)
		}
		esc = false
	}
	return b.String()
}
