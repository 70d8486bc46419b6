package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kbharvest/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	st := NewStore()
	id1 := st.Add(rdf.T("jobs", "founded", "apple"))
	st.Add(rdf.Triple{S: rdf.NewIRI("jobs"), P: rdf.NewIRI("label"), O: rdf.NewLangLiteral("Steve Jobs", "en")})
	id3 := st.Add(rdf.Triple{S: rdf.NewIRI("jobs"), P: rdf.NewIRI("born"), O: rdf.NewTypedLiteral("1955-02-24", rdf.XSDDate)})
	st.SetInfo(id1, FactInfo{Confidence: 0.8, Source: "patterns:a1", Time: Interval{100, 900}})
	st.SetInfo(id3, FactInfo{Confidence: 0.95, Source: "infobox", Time: Always})

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	st2 := NewStore()
	n, err := st2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if n != 3 || st2.Len() != 3 {
		t.Fatalf("loaded %d facts, Len %d", n, st2.Len())
	}
	id, ok := st2.FactOf(rdf.T("jobs", "founded", "apple"))
	if !ok {
		t.Fatal("fact missing after load")
	}
	info, _ := st2.Info(id)
	if info.Confidence != 0.8 || info.Source != "patterns:a1" || info.Time != (Interval{100, 900}) {
		t.Errorf("meta after load = %+v", info)
	}
	// The unannotated fact gets defaults.
	id2, _ := st2.FactOf(rdf.Triple{S: rdf.NewIRI("jobs"), P: rdf.NewIRI("label"), O: rdf.NewLangLiteral("Steve Jobs", "en")})
	info2, _ := st2.Info(id2)
	if info2.Confidence != 1 || info2.Time != Always {
		t.Errorf("default meta after load = %+v", info2)
	}
}

// sealed wraps fact, meta and comment lines the way a writer other than
// Save would have to: under the v3 header, over a computed trailer.
func sealed(lines string) string {
	content := snapshotHeader + "\n" + lines
	facts := 0
	for _, l := range strings.Split(lines, "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			facts++
		}
	}
	return fmt.Sprintf("%s%s%08x %d\n", content, crcPrefix, crc32.ChecksumIEEE([]byte(content)), facts)
}

// Lines that do not parse fail the load even when the trailer certifies
// them: the integrity pass accepts each of these files, the insert pass
// rejects it.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"meta first", "#!meta 0.5 0 1 src\n"},
		{"bad conf", "<a> <p> <b> .\n#!meta notanumber 0 1 src\n"},
		{"bad begin", "<a> <p> <b> .\n#!meta 0.5 x 1 src\n"},
		{"bad end", "<a> <p> <b> .\n#!meta 0.5 0 y src\n"},
		{"short meta", "<a> <p> <b> .\n#!meta 0.5\n"},
		{"bad triple", "<a> <p>\n"},
		// Stored, the zero term would be a wildcard: "?s kb:p ?o . ?s kb:q ?z"
		// would bind ?s to it and then match both kb:q facts.
		{"empty IRI", "<> <kb:p> <kb:a> .\n<kb:x> <kb:q> <kb:b> .\n<kb:y> <kb:q> <kb:c> .\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := sealed(c.in)
			if _, err := readSnapshot(strings.NewReader(in), nil); err != nil {
				t.Fatalf("integrity pass over %q: %v", in, err)
			}
			st := NewStore()
			if n, err := st.Load(strings.NewReader(in)); err == nil || n != 0 || st.Len() != 0 {
				t.Errorf("Load(%q) = %d, %v, leaving %d facts; want 0, an error and an empty store", in, n, err, st.Len())
			}
		})
	}
}

// Plain "#" comments are skipped, and hashed like any other line.
func TestLoadIgnoresPlainComments(t *testing.T) {
	in := sealed("# header comment\n<a> <p> <b> .\n  # indented\n# tail\n")
	st := NewStore()
	n, err := st.Load(strings.NewReader(in))
	if err != nil || n != 1 || !st.Has(rdf.T("a", "p", "b")) {
		t.Fatalf("Load = %d, %v", n, err)
	}
	if _, err := NewStore().Load(strings.NewReader(strings.Replace(in, "# tail", "# tale", 1))); err == nil {
		t.Error("an edited comment did not fail the CRC")
	}
}

func TestSnapshotRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	names := []string{"e1", "e2", "e3", "e4", "rel_a", "rel_b"}
	for trial := 0; trial < 20; trial++ {
		st := NewStore()
		for i := 0; i < 50; i++ {
			id := st.Add(rdf.T(names[r.Intn(4)], names[4+r.Intn(2)], names[r.Intn(4)]))
			if r.Intn(2) == 0 {
				st.SetInfo(id, FactInfo{
					Confidence: float64(r.Intn(100)) / 100,
					Source:     "src with spaces",
					Time:       Interval{r.Intn(100), 100 + r.Intn(100)},
				})
			}
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		st2 := NewStore()
		if _, err := st2.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if st2.Len() != st.Len() {
			t.Fatalf("trial %d: Len %d != %d", trial, st2.Len(), st.Len())
		}
		for _, tr := range st.All() {
			if !st2.Has(tr) {
				t.Fatalf("trial %d: missing %v", trial, tr)
			}
			idA, _ := st.FactOf(tr)
			idB, _ := st2.FactOf(tr)
			ia, _ := st.Info(idA)
			ib, _ := st2.Info(idB)
			if ia != ib {
				t.Fatalf("trial %d: meta mismatch %+v != %+v", trial, ia, ib)
			}
		}
	}
}

// Property: snapshots round-trip FactInfo.Source strings that attack the
// line-oriented meta format — newlines, carriage returns, backslashes,
// "#!meta" prefixes, unicode — without corrupting the following lines.
func TestSnapshotRoundTripHostileSources(t *testing.T) {
	sources := []string{
		"plain-article-42",
		"line1\nline2",
		"\n",
		"\r\n",
		"trailing-newline\n",
		"#!meta 0.5 0 0 fake",
		"back\\slash and C:\\path\\file",
		"tab\tand spaces  kept",
		"unicode: préfix ∞ 知識",
		"\\n literal backslash-n",
		"",
	}
	st := NewStore()
	var ids []FactID
	for i, src := range sources {
		id := st.Add(rdf.T(fmt.Sprintf("kb:s%d", i), "kb:rel", fmt.Sprintf("kb:o%d", i)))
		st.SetInfo(id, FactInfo{Confidence: 0.25 + float64(i)/100, Source: src, Time: Interval{10, 20}})
		ids = append(ids, id)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore()
	n, err := loaded.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load after hostile sources: %v\nsnapshot:\n%s", err, buf.String())
	}
	if n != len(sources) {
		t.Fatalf("loaded %d facts, want %d", n, len(sources))
	}
	for i, src := range sources {
		id, ok := loaded.FactOf(rdf.T(fmt.Sprintf("kb:s%d", i), "kb:rel", fmt.Sprintf("kb:o%d", i)))
		if !ok {
			t.Fatalf("fact %d missing after round trip", i)
		}
		info, _ := loaded.Info(id)
		if info.Source != src {
			t.Errorf("source %d round-tripped to %q, want %q", i, info.Source, src)
		}
		want, _ := st.Info(ids[i])
		if info.Confidence != want.Confidence || info.Time != want.Time {
			t.Errorf("meta %d = %+v, want %+v", i, info, want)
		}
	}
}

// Regression: Load used to TrimSpace every line, silently mangling meta
// sources with leading or trailing spaces/tabs that escapeMetaSource had
// faithfully written. Only line-ending characters may be trimmed, so
// sources round-trip byte-exactly.
func TestSnapshotSourceWhitespaceRoundTrip(t *testing.T) {
	sources := []string{
		"trailing-space ",
		"trailing-tab\t",
		"trailing-both \t ",
		"  leading-spaces",
		"\tleading-tab",
		" padded both sides \t",
	}
	st := NewStore()
	for i, src := range sources {
		id := st.Add(rdf.T(fmt.Sprintf("kb:ws%d", i), "kb:rel", "kb:o"))
		st.SetInfo(id, FactInfo{Confidence: 0.5, Source: src, Time: Interval{1, 2}})
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore()
	if n, err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil || n != len(sources) {
		t.Fatalf("Load = %d, %v", n, err)
	}
	for i, src := range sources {
		id, ok := loaded.FactOf(rdf.T(fmt.Sprintf("kb:ws%d", i), "kb:rel", "kb:o"))
		if !ok {
			t.Fatalf("fact %d missing", i)
		}
		info, _ := loaded.Info(id)
		if info.Source != src {
			t.Errorf("source %d = %q, want %q", i, info.Source, src)
		}
	}
}

// A snapshot whose last line — the trailer — lacks its final newline
// (hand-edited file, a copy tool that strips it) still verifies and loads
// every fact.
func TestLoadNoTrailingNewline(t *testing.T) {
	in := strings.TrimSuffix(sealed("<kb:a> <kb:p> <kb:b> .\n#!meta 0.5 1 2 src\n<kb:c> <kb:p> <kb:d> .\n"), "\n")
	st := NewStore()
	n, err := st.Load(strings.NewReader(in))
	if err != nil || n != 2 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	if !st.Has(rdf.T("kb:c", "kb:p", "kb:d")) {
		t.Error("final fact missing")
	}
	id, _ := st.FactOf(rdf.T("kb:a", "kb:p", "kb:b"))
	if info, _ := st.Info(id); info.Source != "src" {
		t.Errorf("meta source = %q", info.Source)
	}
}

// Save must produce a consistent, loadable view while writers add facts
// and metadata: every snapshot taken mid-write has to contain all stable
// facts, parse cleanly, and hold no fewer facts than the one before it
// (run under -race in CI).
func TestConcurrentSaveWithWriters(t *testing.T) {
	st := NewStore()
	var stable []rdf.Triple
	for i := 0; i < 50; i++ {
		tr := rdf.T(fmt.Sprintf("kb:stable%d", i), "kb:rel", "kb:o")
		st.Add(tr)
		stable = append(stable, tr)
	}
	const batches = 400
	var writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < batches; i++ {
				batch := []rdf.Triple{
					rdf.T(fmt.Sprintf("kb:new%d_%d", g, i), "kb:rel", "kb:x"),
					rdf.T(fmt.Sprintf("kb:new%d_%d", g, i), "kb:rel", "kb:y"),
				}
				ids := st.AddBatch(batch)
				st.SetInfo(ids[0], FactInfo{Confidence: 0.5, Source: "new ", Time: Interval{1, 2}})
			}
		}(g)
	}
	last := 0
	for round := 0; round < 20; round++ {
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatalf("round %d: Save: %v", round, err)
		}
		loaded := NewStore()
		n, err := loaded.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round %d: snapshot does not load: %v", round, err)
		}
		for _, tr := range stable {
			if !loaded.Has(tr) {
				t.Fatalf("round %d: stable fact %v missing from snapshot", round, tr)
			}
		}
		if n < last {
			t.Fatalf("round %d: snapshot holds %d facts, the one before held %d", round, n, last)
		}
		last = n
	}
	writers.Wait()
}

// SaveShards partitions the store into N loadable snapshots whose union
// is the original store, metadata included.
func TestSaveShardsRoundTrip(t *testing.T) {
	st := NewStore()
	for i := 0; i < 40; i++ {
		id := st.Add(rdf.T(fmt.Sprintf("kb:s%d", i), "kb:rel", fmt.Sprintf("kb:o%d", i%7)))
		if i%3 == 0 {
			st.SetInfo(id, FactInfo{Confidence: 0.9, Source: fmt.Sprintf("src%d", i), Time: Interval{i, i + 1}})
		}
	}
	const n = 4
	bufs := make([]bytes.Buffer, n)
	ws := make([]io.Writer, n)
	for i := range bufs {
		ws[i] = &bufs[i]
	}
	shardOf := func(t rdf.Triple) int { return len(t.S.Value) % n }
	if err := st.SaveShards(ws, shardOf); err != nil {
		t.Fatal(err)
	}
	merged := NewStore()
	total := 0
	for i := range bufs {
		if !strings.HasPrefix(bufs[i].String(), "#!kbsnap 3\n") {
			t.Errorf("shard %d missing version header", i)
		}
		shard := NewStore()
		c, err := shard.Load(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		// Every fact in the shard belongs there per the shard function.
		for _, tr := range shard.All() {
			if shardOf(tr) != i {
				t.Errorf("fact %v landed in shard %d, want %d", tr, i, shardOf(tr))
			}
		}
		if _, err := merged.Load(bytes.NewReader(bufs[i].Bytes())); err != nil {
			t.Fatal(err)
		}
		total += c
	}
	if total != st.Len() || merged.Len() != st.Len() {
		t.Fatalf("shards hold %d facts (merged %d), want %d", total, merged.Len(), st.Len())
	}
	for _, tr := range st.All() {
		idA, _ := st.FactOf(tr)
		idB, ok := merged.FactOf(tr)
		if !ok {
			t.Fatalf("fact %v lost in sharding", tr)
		}
		ia, _ := st.Info(idA)
		ib, _ := merged.Info(idB)
		if ia != ib {
			t.Errorf("meta for %v = %+v, want %+v", tr, ib, ia)
		}
	}
	// Errors: no writers, out-of-range shard.
	if err := st.SaveShards(nil, nil); err == nil {
		t.Error("SaveShards(nil) should fail")
	}
	if err := st.SaveShards(ws, func(rdf.Triple) int { return n }); err == nil {
		t.Error("out-of-range shard function should fail")
	}
}

// The version header makes a snapshot self-describing: Save's output
// starts with it, and a source escaped on the way out is unescaped on the
// way in.
func TestSnapshotHeaderWrittenAndGatesUnescaping(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("kb:s", "kb:p", "kb:o"))
	st.SetInfo(id, FactInfo{Confidence: 0.5, Source: "a\nb", Time: Interval{1, 2}})
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "#!kbsnap 3\n") {
		t.Fatalf("snapshot does not start with version header:\n%s", buf.String())
	}
	loaded := NewStore()
	if _, err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	lid, _ := loaded.FactOf(rdf.T("kb:s", "kb:p", "kb:o"))
	info, _ := loaded.Info(lid)
	if info.Source != "a\nb" {
		t.Errorf("versioned source = %q, want %q", info.Source, "a\nb")
	}
}

// The v3 trailer turns torn writes into loud errors: a truncated copy, a
// flipped bit, a wrong fact count, or trailing garbage must all fail the
// load, and so do the formats that predate the trailer.
func TestSnapshotCRCDetectsCorruption(t *testing.T) {
	st := NewStore()
	for i := 0; i < 20; i++ {
		id := st.Add(rdf.T(fmt.Sprintf("kb:e%d", i), "kb:rel", fmt.Sprintf("kb:v%d", i)))
		st.SetInfo(id, FactInfo{Confidence: 0.7, Source: fmt.Sprintf("src%d", i), Time: Interval{1, 2}})
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if !strings.Contains(good, "#!kbcrc ") {
		t.Fatalf("snapshot has no CRC trailer:\n%s", good)
	}
	if n, err := NewStore().Load(strings.NewReader(good)); err != nil || n != st.Len() {
		t.Fatalf("clean load = %d, %v; want %d, nil", n, err, st.Len())
	}

	cases := []struct {
		name, data string
	}{
		{"truncated before trailer", good[:strings.Index(good, "#!kbcrc ")]},
		{"truncated mid-facts", good[:len(good)/2]},
		{"bit flip", strings.Replace(good, "kb:e7", "kb:f7", 1)},
		{"dropped fact line", strings.Replace(good, "<kb:e3> <kb:rel> <kb:v3> .\n", "", 1)},
		{"content after trailer", good + "<kb:x> <kb:p> <kb:y> .\n"},
		{"duplicate trailer", good + good[strings.Index(good, "#!kbcrc "):]},
		{"malformed trailer", strings.Replace(good, "#!kbcrc ", "#!kbcrc zz ", 1)},
		{"legacy: no header, no trailer", "<kb:a> <kb:p> <kb:b> .\n#!meta 0.5 1 2 src\n"},
		{"v2: an older header, no trailer", "#!kbsnap 2\n<kb:a> <kb:p> <kb:b> .\n"},
		{"v2 header over a valid trailer", strings.Replace(sealed("<kb:a> <kb:p> <kb:b> .\n"), "#!kbsnap 3", "#!kbsnap 2", 1)},
		{"header not on the first line", "\n" + good},
		{"empty", ""},
	}
	for _, tc := range cases {
		if n, err := NewStore().Load(strings.NewReader(tc.data)); err == nil || n != 0 {
			t.Errorf("%s: load = %d, %v; want 0 and an integrity error", tc.name, n, err)
		}
	}
}

// CRLF translation in transit (editors, some copy tools) must not break
// trailer verification: the CRC is over "\n"-normalized lines.
func TestSnapshotCRCSurvivesCRLF(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("kb:s", "kb:p", "kb:o"))
	st.SetInfo(id, FactInfo{Confidence: 0.5, Source: "src", Time: Interval{1, 2}})
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(buf.String(), "\n", "\r\n")
	if n, err := NewStore().Load(strings.NewReader(crlf)); err != nil || n != 1 {
		t.Fatalf("CRLF load = %d, %v; want 1, nil", n, err)
	}
}

// SaveFile writes through a temp file and renames, so the target is
// either absent or a complete, verifiable snapshot — and no temp files
// are left behind.
func TestSaveFileAtomicAndClean(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	for i := 0; i < 5; i++ {
		st.Add(rdf.T(fmt.Sprintf("kb:s%d", i), "kb:p", "kb:o"))
	}
	path := filepath.Join(dir, "kb.nt")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := loaded.Load(bytes.NewReader(data)); err != nil || n != st.Len() {
		t.Fatalf("Load = %d, %v; want %d, nil", n, err, st.Len())
	}
	// Overwrite in place: the old snapshot must be replaced atomically.
	st.Add(rdf.T("kb:extra", "kb:p", "kb:o"))
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "kb.nt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only kb.nt (no temp litter)", names)
	}
}

func TestSaveShardFiles(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	for i := 0; i < 30; i++ {
		st.Add(rdf.T(fmt.Sprintf("kb:s%d", i), "kb:p", fmt.Sprintf("kb:o%d", i)))
	}
	paths := []string{
		filepath.Join(dir, "shard0.nt"),
		filepath.Join(dir, "shard1.nt"),
		filepath.Join(dir, "shard2.nt"),
	}
	shardOf := func(tr rdf.Triple) int { return len(tr.S.Value) % len(paths) }
	if err := st.SaveShardFiles(paths, shardOf); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		shard := NewStore()
		n, err := shard.Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		total += n
	}
	if total != st.Len() {
		t.Fatalf("shards hold %d facts, want %d", total, st.Len())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(paths) {
		t.Fatalf("directory holds %d entries, want %d (no temp litter)", len(entries), len(paths))
	}
}

// A snapshot that fails verification must not leave a single fact, term
// or generation bump behind: Load checks header, trailer, CRC and count
// over the whole file before it inserts anything. The store then loads a
// good snapshot as if nothing had happened.
func TestLoadRejectedLeavesStoreUntouched(t *testing.T) {
	src := NewStore()
	for i := 0; i < 10000; i++ {
		id := src.Add(rdf.T(fmt.Sprintf("kb:e%d", i), "kb:rel", fmt.Sprintf("kb:v%d", i%97)))
		if i%5 == 0 {
			src.SetInfo(id, FactInfo{Confidence: 0.5, Source: "src", Time: Interval{1, 2}})
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	flipped := []byte(good)
	flipped[strings.Index(good, "<kb:e9990>")+5] ^= 0x01 // one bit, ten facts from the end
	trailer := strings.LastIndex(good, crcPrefix)

	st := NewStore()
	for _, tc := range []struct{ name, data string }{
		{"flipped byte near the end", string(flipped)},
		{"truncated", good[:len(good)-200]},
		{"wrong trailer count", good[:trailer] + strings.Replace(good[trailer:], " 10000\n", " 9999\n", 1)},
		{"missing header", strings.TrimPrefix(good, snapshotHeader+"\n")},
		{"#!kbsnap 2 header", strings.Replace(good, snapshotHeader, "#!kbsnap 2", 1)},
	} {
		if tc.data == good {
			t.Fatalf("%s: the corruption did not apply", tc.name)
		}
		n, err := st.Load(strings.NewReader(tc.data))
		if err == nil || n != 0 {
			t.Errorf("%s: Load = %d, %v; want 0 and an error", tc.name, n, err)
		}
		if st.Len() != 0 || st.TermCount() != 0 || st.WriteGen() != 0 {
			t.Fatalf("%s: rejected load left %d facts, %d terms, write generation %d", tc.name, st.Len(), st.TermCount(), st.WriteGen())
		}
	}
	if n, err := st.Load(strings.NewReader(good)); err != nil || n != 10000 || st.Len() != 10000 {
		t.Fatalf("good snapshot after the rejections: Load = %d, %v; Len %d", n, err, st.Len())
	}
	if !reflect.DeepEqual(st.All(), src.All()) {
		t.Error("the loaded facts differ from the saved ones")
	}
}

// Load never panics; an input that fails the integrity pass leaves the
// store empty; an input it accepts is a KB that Save and Load reproduce.
// Each input is tried as it is and sealed under a computed trailer, so the
// fuzzer reaches the parsing pass without having to guess a CRC.
func FuzzLoad(f *testing.F) {
	f.Add([]byte("<kb:a> <kb:p> <kb:b> .\n#!meta 0.5 1 2 a\\nb \n# note\n<kb:a> <kb:q> \"x  y \"@en .\n"))
	f.Add([]byte("#!meta 0.5 0 1 src\n"))
	f.Add([]byte("<a> <p>\r\n<a> <p> <b> .\r\n"))
	f.Add([]byte(sealed("<a> <p> <b> .\n")))
	f.Add([]byte("#!kbsnap 2\n<a> <p> <b> .\n"))
	f.Add([]byte(snapshotHeader + "\n<a> <p> <b> .\n#!kbcrc 00000000 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, []byte(sealed(string(data)))} {
			st := NewStore()
			n, err := st.Load(bytes.NewReader(in))
			if _, verr := readSnapshot(bytes.NewReader(in), nil); verr != nil {
				if err == nil || n != 0 || st.Len() != 0 || st.TermCount() != 0 || st.WriteGen() != 0 {
					t.Fatalf("integrity pass says %v, yet Load = %d, %v and the store holds %d facts, %d terms", verr, n, err, st.Len(), st.TermCount())
				}
				continue
			}
			if err != nil {
				continue // certified by its trailer but unparsable: a prefix may remain
			}
			var buf bytes.Buffer
			if err := st.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back := NewStore()
			if _, err := back.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("re-load of an accepted snapshot: %v\n%s", err, buf.String())
			}
			if !reflect.DeepEqual(back.All(), st.All()) {
				t.Fatalf("Save/Load changed the facts:\n got  %v\n want %v", back.All(), st.All())
			}
		}
	})
}
