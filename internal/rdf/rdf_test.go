package rdf

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", NewIRI("yago:Steve_Jobs"), IRI, "<yago:Steve_Jobs>"},
		{"plain literal", NewLiteral("Steve Jobs"), Literal, `"Steve Jobs"`},
		{"lang literal", NewLangLiteral("Steve Jobs", "en"), Literal, `"Steve Jobs"@en`},
		{"typed literal", NewTypedLiteral("1955-02-24", XSDDate), Literal, `"1955-02-24"^^<xsd:date>`},
		{"blank", NewBlank("f42"), Blank, "_:f42"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.term.Kind != tt.kind {
				t.Errorf("kind = %v, want %v", tt.term.Kind, tt.kind)
			}
			if got := tt.term.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestTermPredicates(t *testing.T) {
	if !NewIRI("a").IsIRI() || NewIRI("a").IsLiteral() || NewIRI("a").IsBlank() {
		t.Error("IRI predicates wrong")
	}
	if !NewLiteral("a").IsLiteral() || NewLiteral("a").IsIRI() {
		t.Error("literal predicates wrong")
	}
	if !NewBlank("a").IsBlank() {
		t.Error("blank predicate wrong")
	}
	if !(Term{}).IsZero() {
		t.Error("zero Term should report IsZero")
	}
	if NewIRI("a").IsZero() {
		t.Error("non-empty IRI should not be zero")
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "iri" || Literal.String() != "literal" || Blank.String() != "blank" {
		t.Errorf("kind strings: %s %s %s", IRI, Literal, Blank)
	}
	if got := TermKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestTermCompare(t *testing.T) {
	a := NewIRI("a")
	b := NewIRI("b")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("IRI ordering wrong")
	}
	if NewIRI("x").Compare(NewLiteral("x")) >= 0 {
		t.Error("IRIs should sort before literals")
	}
	if NewLangLiteral("x", "de").Compare(NewLangLiteral("x", "en")) >= 0 {
		t.Error("language tags should break ties")
	}
	if NewTypedLiteral("x", "a").Compare(NewTypedLiteral("x", "b")) >= 0 {
		t.Error("datatypes should break ties")
	}
}

func TestTripleString(t *testing.T) {
	tr := T("yago:Steve_Jobs", RDFType, "yago:ComputerPioneer")
	want := "<yago:Steve_Jobs> <rdf:type> <yago:ComputerPioneer> ."
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTripleCompare(t *testing.T) {
	a := T("a", "p", "x")
	b := T("a", "p", "y")
	c := T("a", "q", "x")
	d := T("b", "p", "x")
	if a.Compare(b) >= 0 || a.Compare(c) >= 0 || a.Compare(d) >= 0 {
		t.Error("triple ordering wrong")
	}
	if a.Compare(a) != 0 || !a.Equal(a) || a.Equal(b) {
		t.Error("triple equality wrong")
	}
}

func TestParseTriple(t *testing.T) {
	tests := []struct {
		in   string
		want Triple
	}{
		{
			"<s> <p> <o> .",
			T("s", "p", "o"),
		},
		{
			"<s> <p> <o>", // trailing dot optional
			T("s", "p", "o"),
		},
		{
			`<s> <rdfs:label> "Steve Jobs"@en .`,
			Triple{NewIRI("s"), NewIRI("rdfs:label"), NewLangLiteral("Steve Jobs", "en")},
		},
		{
			`<s> <born> "1955-02-24"^^<xsd:date> .`,
			Triple{NewIRI("s"), NewIRI("born"), NewTypedLiteral("1955-02-24", XSDDate)},
		},
		{
			`_:f1 <about> <s> .`,
			Triple{NewBlank("f1"), NewIRI("about"), NewIRI("s")},
		},
		{
			`<s> <says> "a \"quoted\" phrase" .`,
			Triple{NewIRI("s"), NewIRI("says"), NewLiteral(`a "quoted" phrase`)},
		},
		{
			"<s>\t<p>\t<o> .",
			T("s", "p", "o"),
		},
	}
	for _, tt := range tests {
		got, err := ParseTriple(tt.in)
		if err != nil {
			t.Errorf("ParseTriple(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseTriple(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseTripleErrors(t *testing.T) {
	bad := []string{
		"",
		"<s>",
		"<s> <p>",
		"<s <p> <o> .",
		`<s> "lit" <o> .`, // literal predicate
		`<s> <p> "unterminated .`,
		"<s> <p> <o> extra .",
		"_ <p> <o> .",
		"_: <p> <o> .",
		`<s> <p> "x"@ .`,
		"? <p> <o> .",
		"<> <p> <o> .", // the empty IRI is the zero Term
		"<s> <> <o> .",
		"<s> <p> <> .",
		`<s> <p> "x"^^<> .`,
	}
	for _, in := range bad {
		if _, err := ParseTriple(in); err == nil {
			t.Errorf("ParseTriple(%q) should fail", in)
		}
	}
}

func TestReaderWriterRoundTrip(t *testing.T) {
	triples := []Triple{
		T("yago:Steve_Jobs", RDFType, "yago:Entrepreneur"),
		{NewIRI("yago:Steve_Jobs"), NewIRI(RDFSLabel), NewLangLiteral("Steve Jobs", "en")},
		{NewIRI("yago:Steve_Jobs"), NewIRI("yago:bornOnDate"), NewTypedLiteral("1955-02-24", XSDDate)},
		{NewBlank("f1"), NewIRI("kb:confidence"), NewTypedLiteral("0.92", XSDDouble)},
		TL("yago:Apple_Inc", "kb:motto", "Think different\nAlways"),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, triples); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, triples) {
		t.Errorf("round trip mismatch:\ngot  %v\nwant %v", got, triples)
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n<s> <p> <o> .\n   \n# another\n<s2> <p> <o> .\n"
	got, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d triples, want 2", len(got))
	}
}

func TestReaderReportsLineNumbers(t *testing.T) {
	in := "<s> <p> <o> .\nbroken line\n"
	_, err := ReadAll(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		if err := w.Write(T("s", "p", "o")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d, want 5", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.after -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&failWriter{after: 1})
	var firstErr error
	for i := 0; i < 100000 && firstErr == nil; i++ {
		firstErr = w.Write(TL("s", "p", strings.Repeat("x", 100)))
	}
	if firstErr == nil {
		// Error may only surface at Flush for small writes.
		firstErr = w.Flush()
	}
	if firstErr == nil {
		t.Fatal("expected an error from failing writer")
	}
	if err := w.Write(T("s", "p", "o")); err == nil && w.err == nil {
		t.Error("error should be sticky")
	}
}

func TestEscapeRoundTripQuick(t *testing.T) {
	f := func(s string) bool {
		return unescapeLiteral(escapeLiteral(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomTerm builds a random valid object term for property testing.
func randomTerm(r *rand.Rand) Term {
	alpha := func(n int) string {
		const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:-."
		b := make([]byte, 1+r.Intn(n))
		for i := range b {
			b[i] = chars[r.Intn(len(chars))]
		}
		return string(b)
	}
	text := func(n int) string {
		const chars = "abcdefghijklmnopqrstuvwxyz \"\\\n\t,.!?éü日本"
		rs := make([]rune, r.Intn(n))
		cr := []rune(chars)
		for i := range rs {
			rs[i] = cr[r.Intn(len(cr))]
		}
		return string(rs)
	}
	switch r.Intn(4) {
	case 0:
		return NewIRI(alpha(20))
	case 1:
		return NewLiteral(text(30))
	case 2:
		return NewLangLiteral(text(30), []string{"en", "de", "fr", "zh"}[r.Intn(4)])
	default:
		return NewTypedLiteral(text(30), []string{XSDDate, XSDInteger, XSDDouble}[r.Intn(3)])
	}
}

func TestTripleSerializationRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tr := Triple{
			S: NewIRI("s" + tripleID(r)),
			P: NewIRI("p" + tripleID(r)),
			O: randomTerm(r),
		}
		got, err := ParseTriple(tr.String())
		if err != nil {
			t.Fatalf("ParseTriple(%q): %v", tr.String(), err)
		}
		if got != tr {
			t.Fatalf("round trip: got %#v want %#v", got, tr)
		}
	}
}

func tripleID(r *rand.Rand) string {
	const chars = "abcdefghijklmnopqrstuvwxyz0123456789_"
	b := make([]byte, 1+r.Intn(12))
	for i := range b {
		b[i] = chars[r.Intn(len(chars))]
	}
	return string(b)
}

// FuzzParseTerm: ParseTerm never panics, never returns the zero Term, and
// a term it accepts parses back to itself from its String form — the
// round trip the /bind wire and the snapshot format rely on.
func FuzzParseTerm(f *testing.F) {
	for _, seed := range []string{
		"<kb:jobs>", "<>", "< >", "<a b>", "_:b1", "_:", "_", `"x"`, `""`, `"two  spaces "`,
		`"café"@fr`, `"x"@`, `"1955-02-24"^^<xsd:date>`, `"x"^^<>`, `"x"^^<dt`, `"a \"quoted\" \\ word"`,
		`"tab\tnew\nline"`, `"trailing\`, `"x" `, ` <a>`, `<a> <b>`, "\"\r\x8c\"", "<\xff>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		term, err := ParseTerm(s)
		if err != nil {
			return
		}
		if term.IsZero() {
			t.Fatalf("ParseTerm(%q) returned the zero Term", s)
		}
		back, err := ParseTerm(term.String())
		if err != nil || back != term {
			t.Fatalf("ParseTerm(%q) = %#v, whose String %q parses to %#v, %v", s, term, term.String(), back, err)
		}
	})
}
