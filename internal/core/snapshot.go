package core

import (
	"bufio"
	"bytes"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"kbharvest/internal/rdf"
)

// Snapshot persistence. The format is N-Triples for the facts plus "#!meta"
// comment lines carrying per-fact metadata, so a snapshot is simultaneously
// a valid N-Triples document (other tools can read it, ignoring comments)
// and a lossless dump of the store.
//
// Layout:
//
//	#!kbsnap 3
//	<s> <p> <o> .
//	#!meta <conf> <begin> <end> <source...>
//	#!kbcrc <crc32-hex> <fact-count>
//
// The first line is the "#!kbsnap 3" header; there is one format, and Load
// reads no other. A meta line applies to the immediately preceding fact
// line; its source went through escapeMetaSource. The snapshot ends in a
// mandatory "#!kbcrc" trailer: a CRC32 (IEEE) over every preceding line
// (normalized to "\n" endings) plus the fact count. Load verifies header
// and trailer on a first pass that inserts nothing, so a torn write — a
// crash mid-save, a truncated copy, a flipped bit — is a loud integrity
// error and an untouched store instead of a silently short KB.

// snapshotHeader is the first line of every snapshot.
const snapshotHeader = "#!kbsnap 3"

// crcPrefix starts the integrity trailer line, metaPrefix a metadata line.
const (
	crcPrefix  = "#!kbcrc "
	metaPrefix = "#!meta "
)

// Save writes the store to w. Facts appear in insertion order. The fact
// list and metadata are captured under one shared hold of the store's
// lock, before serialization, so a concurrent write cannot tear a
// snapshot.
func (st *Store) Save(w io.Writer) error {
	return st.SaveShards([]io.Writer{w}, nil)
}

// SaveShards writes the store hash-partitioned across len(ws) snapshot
// files: each fact (and its meta line) goes to ws[shardOf(triple)], and
// every shard carries the version header, so each output is itself a
// complete, loadable snapshot of its partition. A nil shardOf (only
// sensible with one writer) routes everything to ws[0]. Like Save, it
// captures the fact list and metadata before it serializes them, and
// neither writes nor calls shardOf with the store's lock held.
func (st *Store) SaveShards(ws []io.Writer, shardOf func(rdf.Triple) int) error {
	if len(ws) == 0 {
		return fmt.Errorf("core: save: no shard writers")
	}
	// The log's triples and the dictionary's terms only grow and a
	// stored FactInfo is never changed in place, so what is captured
	// here stays valid to read once the lock is released.
	st.mu.RLock()
	ets, terms := st.log.triples, st.dict.terms
	infos := make([]*FactInfo, len(ets))
	for id, m := range st.log.meta {
		infos[id] = m
	}
	st.mu.RUnlock()
	bws := make([]*bufio.Writer, len(ws))
	crcs := make([]hash.Hash32, len(ws))
	counts := make([]int, len(ws))
	for i, w := range ws {
		// Everything before the trailer flows through the CRC as it is
		// written, so the trailer certifies exactly the bytes on disk.
		crcs[i] = crc32.NewIEEE()
		bws[i] = bufio.NewWriter(io.MultiWriter(w, crcs[i]))
		if _, err := bws[i].WriteString(snapshotHeader + "\n"); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
	}
	for i, et := range ets {
		t := terms.triple(et)
		shard := 0
		if shardOf != nil {
			shard = shardOf(t)
			if shard < 0 || shard >= len(ws) {
				return fmt.Errorf("core: save: shard function returned %d for %d writers", shard, len(ws))
			}
		}
		bw := bws[shard]
		counts[shard]++
		if _, err := bw.WriteString(t.String()); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		if m := infos[i]; m != nil {
			line := fmt.Sprintf(metaPrefix+"%g %d %d %s\n", m.Confidence, m.Time.Begin, m.Time.End, escapeMetaSource(m.Source))
			if _, err := bw.WriteString(line); err != nil {
				return fmt.Errorf("core: save: %w", err)
			}
		}
	}
	for i, bw := range bws {
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		// The trailer itself bypasses the CRC writer: it certifies the
		// content, it is not part of it.
		trailer := fmt.Sprintf("%s%08x %d\n", crcPrefix, crcs[i].Sum32(), counts[i])
		if _, err := io.WriteString(ws[i], trailer); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
	}
	return nil
}

// SaveFile writes the snapshot crash-safely: to a temp file in the
// target directory, synced, then atomically renamed over path, so a
// crash mid-save leaves either the old snapshot or the new one — never a
// torn file.
func (st *Store) SaveFile(path string) error {
	return st.SaveShardFiles([]string{path}, nil)
}

// SaveShardFiles is SaveShards onto named files with crash safety: each
// shard is written to a temp file beside its target, fsynced, and
// atomically renamed into place only after a successful write. On error
// the temp files are removed and every target keeps its previous
// contents.
func (st *Store) SaveShardFiles(paths []string, shardOf func(rdf.Triple) int) (err error) {
	tmps := make([]*os.File, 0, len(paths))
	defer func() {
		if err != nil {
			for _, f := range tmps {
				f.Close()
				os.Remove(f.Name())
			}
		}
	}()
	ws := make([]io.Writer, len(paths))
	for i, p := range paths {
		f, ferr := os.CreateTemp(filepath.Dir(p), filepath.Base(p)+".tmp*")
		if ferr != nil {
			return fmt.Errorf("core: save: %w", ferr)
		}
		tmps = append(tmps, f)
		ws[i] = f
	}
	if err = st.SaveShards(ws, shardOf); err != nil {
		return err
	}
	for i, f := range tmps {
		if err = f.Sync(); err != nil {
			return fmt.Errorf("core: save: sync %s: %w", f.Name(), err)
		}
		if err = f.Close(); err != nil {
			return fmt.Errorf("core: save: close %s: %w", f.Name(), err)
		}
		if err = os.Rename(f.Name(), paths[i]); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
	}
	tmps = nil // every rename landed; nothing to clean up
	return nil
}

// loadBatchSize bounds how many parsed facts Load buffers before flushing
// them through the batch write path.
const loadBatchSize = 4096

// Load reads a snapshot produced by Save into an empty-or-existing store,
// from r's current offset, and returns the number of facts loaded: 0 with
// any error.
//
// It reads r twice. The first pass inserts nothing and checks integrity:
// the "#!kbsnap 3" header, exactly one well-formed "#!kbcrc" trailer with
// nothing after it, the CRC of every line before the trailer, and the
// fact count. Any of those failing — and a read or seek error — leaves the
// store exactly as it was, so a truncated, bit-flipped or foreign file
// never half-loads. The second pass parses the lines and asserts the facts
// through the batch write path in chunks of loadBatchSize. A fact or meta
// line that does not parse although the trailer certifies it (a snapshot
// written wrong, not one torn afterwards) is found only there, after the
// chunks before it went in: that error, alone, can leave a prefix behind.
func (st *Store) Load(r io.ReadSeeker) (n int, err error) {
	start, err := r.Seek(0, io.SeekCurrent)
	if err == nil {
		_, err = readSnapshot(r, nil)
	}
	if err == nil {
		_, err = r.Seek(start, io.SeekStart)
	}
	if err == nil {
		n, err = readSnapshot(r, st)
	}
	if err != nil {
		return 0, fmt.Errorf("core: load: %w", err)
	}
	return n, nil
}

// readSnapshot is the one pass over a snapshot's lines that Load runs
// twice: with a nil store it checks header, trailer, CRC and fact count
// and parses nothing; with a store it also parses and inserts. Terms and
// meta sources are cut from a line's string; the dictionary copies a new
// term, and sources keeps one copy of each distinct source, so no line
// stays alive once its facts are in.
func readSnapshot(r io.Reader, st *Store) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	lineNo := 0
	sawTrailer := false
	// The running CRC hashes each content line normalized to a "\n"
	// ending — exactly the bytes SaveShards wrote (it never emits \r),
	// while staying robust to CRLF translation in transit.
	crc := uint32(0)
	var (
		pending []rdf.Triple
		infos   []*FactInfo
		sources = make(map[string]string)
	)
	for sc.Scan() {
		lineNo++
		// Trim only line-ending characters: the scanner already stripped
		// the \n, so only a \r (CRLF files) can remain. Interior and
		// trailing spaces/tabs must survive — escapeMetaSource wrote meta
		// sources byte-faithfully, and a TrimSpace here would silently
		// mangle a source with trailing whitespace on reload.
		line := bytes.TrimRight(sc.Bytes(), "\r")
		if lineNo == 1 && string(line) != snapshotHeader {
			return 0, fmt.Errorf("line 1: not a snapshot: want %q, got %.40q", snapshotHeader, line)
		}
		// Classify on a left-trimmed view so hand-indented comment and
		// meta lines still parse, without disturbing the trailing bytes.
		ltrim := bytes.TrimLeft(line, " \t")
		blank := len(bytes.TrimSpace(ltrim)) == 0
		if bytes.HasPrefix(ltrim, []byte(crcPrefix)) {
			if sawTrailer {
				return 0, fmt.Errorf("line %d: duplicate %strailer", lineNo, crcPrefix)
			}
			if err := verifyCRCTrailer(string(ltrim), crc, n); err != nil {
				return 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
			sawTrailer = true
			continue
		}
		if sawTrailer && !blank {
			return 0, fmt.Errorf("line %d: content after %strailer", lineNo, crcPrefix)
		}
		crc = crc32.Update(crc, crc32.IEEETable, line)
		crc = crc32.Update(crc, crc32.IEEETable, newline)
		switch {
		case blank:
		case bytes.HasPrefix(ltrim, []byte(metaPrefix)):
			if st == nil {
				continue
			}
			if len(pending) == 0 {
				return 0, fmt.Errorf("line %d: meta without preceding fact", lineNo)
			}
			info, err := parseMetaLine(string(ltrim))
			if err != nil {
				return 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if src, ok := sources[info.Source]; ok {
				info.Source = src
			} else {
				info.Source = strings.Clone(info.Source)
				sources[info.Source] = info.Source
			}
			infos[len(infos)-1] = &info
		case ltrim[0] == '#':
		default:
			n++
			if st == nil {
				continue
			}
			t, err := rdf.ParseTriple(string(bytes.TrimSpace(line)))
			if err != nil {
				return 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
			// Flush before this fact rather than after it, so the fact a
			// following meta line applies to is always still pending.
			if len(pending) >= loadBatchSize {
				st.addBatch(pending, infos)
				pending, infos = pending[:0], infos[:0]
			}
			pending = append(pending, t)
			infos = append(infos, nil)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !sawTrailer {
		return 0, fmt.Errorf("truncated snapshot: missing %strailer after %d facts", crcPrefix, n)
	}
	if st != nil {
		st.addBatch(pending, infos)
	}
	return n, nil
}

var newline = []byte{'\n'}

// verifyCRCTrailer checks one "#!kbcrc <hex> <count>" line against the
// running CRC and fact count.
func verifyCRCTrailer(line string, gotCRC uint32, gotFacts int) error {
	fields := strings.Fields(strings.TrimPrefix(line, crcPrefix))
	if len(fields) != 2 {
		return fmt.Errorf("malformed %strailer %q", crcPrefix, line)
	}
	wantCRC, err := strconv.ParseUint(fields[0], 16, 32)
	if err != nil {
		return fmt.Errorf("%strailer crc: %w", crcPrefix, err)
	}
	wantFacts, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("%strailer count: %w", crcPrefix, err)
	}
	if uint32(wantCRC) != gotCRC {
		return fmt.Errorf("snapshot corrupt: crc %08x, trailer says %08x", gotCRC, uint32(wantCRC))
	}
	if wantFacts != gotFacts {
		return fmt.Errorf("snapshot corrupt: %d facts, trailer says %d", gotFacts, wantFacts)
	}
	return nil
}

// parseMetaLine decodes one "#!meta" line, unescaping its source.
func parseMetaLine(line string) (FactInfo, error) {
	fields := strings.SplitN(strings.TrimPrefix(line, metaPrefix), " ", 4)
	if len(fields) < 3 {
		return FactInfo{}, fmt.Errorf("malformed meta line %q", line)
	}
	conf, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return FactInfo{}, fmt.Errorf("confidence: %w", err)
	}
	begin, err := strconv.Atoi(fields[1])
	if err != nil {
		return FactInfo{}, fmt.Errorf("begin: %w", err)
	}
	end, err := strconv.Atoi(fields[2])
	if err != nil {
		return FactInfo{}, fmt.Errorf("end: %w", err)
	}
	src := ""
	if len(fields) == 4 {
		src = unescapeMetaSource(fields[3])
	}
	return FactInfo{Confidence: conf, Source: src, Time: Interval{begin, end}}, nil
}

// escapeMetaSource makes a FactInfo.Source safe to embed in a single
// "#!meta" line: backslashes and line breaks — which would otherwise split
// the meta line and corrupt the snapshot for Load — become escapes so the
// line-oriented format round-trips any source string.
func escapeMetaSource(s string) string {
	if !strings.ContainsAny(s, "\\\n\r") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeMetaSource inverts escapeMetaSource. The writer always escapes
// backslashes, so every `\n`, `\r` and `\\` sequence is an escape, and
// unknown sequences (which it never emits) pass through verbatim.
func unescapeMetaSource(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			case 'r':
				b.WriteByte('\r')
				i++
				continue
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}
