// Package serve implements the single-shard HTTP serving surface of the
// knowledge base: request parsing, cache-backed conjunctive query
// evaluation with per-request deadlines, planner estimates, readiness,
// and operational counters. cmd/kbserve wraps it in a process; the
// scatter/gather tier (internal/shardkb, cmd/kbrouter) talks to N of
// these over /bind and /estimate, and tests and experiments drive it
// in-process through httptest. /query and its reply cache serve direct
// clients: the router answers every query, one pattern included, as a
// bind join.
//
// Endpoints:
//
//	POST /query     {"patterns": [...], "limit": N} -> QueryResponse
//	POST /estimate  {"patterns": [...]}             -> EstimateResponse
//	POST /bind      one pattern + positional binding rows (+ a limit) ->
//	                the rows' matches, positional (bind.go): the router's
//	                join step, one request per shard per step however many
//	                bindings
//	GET  /statsz    cache hit rate, latency histogram, store stats
//	GET  /healthz   liveness probe (process up)
//	GET  /readyz    readiness: 200 + fact count/snapshot path once the
//	                store holds facts, 503 while empty/still loading
//
// A server whose snapshot failed verification (Options.LoadError) answers
// 503 on the three data endpoints as well as on /readyz.
//
// Every 200 reply on /query, /estimate, /bind and /readyz carries the
// server's epoch in a Kb-Epoch header (EpochHeader): a random 64-bit
// nonce minted by NewServer, a dot, and the store's write generation read
// before the request is evaluated. The answers a server gives cannot
// change unless its epoch does — a new process mints a new nonce, and
// every write advances the generation — so a client that remembers the
// last epoch of each server (shardkb.Client.Generation) knows when what
// it cached may have gone stale.
//
// There is one reader, one matcher and one encoder. The three request
// bodies share one strict grammar, read by one cursor (bindwire.go): keys
// are exact and case-sensitive, an unknown key or trailing data is a 400,
// "limit" is a non-negative integer of at most 2^31-1, and the bytes of a
// string are kept as sent. All three run core.Matcher — /bind seeds its
// slots from the request's rows, the others start from an empty row — and
// every /query reply, here and in cmd/kbrouter, is the head
// AppendRowsHead's format fixes followed by AppendRowsTail; encoding/json
// writes only the small fixed-shape replies (errors, /estimate, /readyz,
// /statsz).
//
// /query keeps what it encoded. A miss reads the store's write
// generation, compiles the patterns, runs the matcher and appends each
// row it completes straight to the reply head — no binding map, no string
// per cell — then stores that head in the reply cache (a qcache.LRU of
// 16 x 256 replies) beside the generation. A repeat while the generation,
// and so the Kb-Epoch, is unchanged is one lookup and one write: the
// stored head, unchanged, and a fresh tail carrying "cached":true and its
// own took_us. Any write makes every entry stale; kbserve is written only
// by its load, before it serves.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/qcache"
	"kbharvest/internal/rdf"
)

// QueryRequest is the POST /query (and /estimate) body.
type QueryRequest struct {
	// Patterns are "s p o" lines in kbquery syntax.
	Patterns []string `json:"patterns"`
	// Limit caps the number of rows (0 = all). Ignored by /estimate.
	Limit int `json:"limit,omitempty"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Vars   []string            `json:"vars,omitempty"`
	Rows   []map[string]string `json:"rows,omitempty"`
	Count  int                 `json:"count"`
	Ask    *bool               `json:"ask,omitempty"` // set for zero-variable queries
	Cached bool                `json:"cached"`
	TookUS int64               `json:"took_us"`
	// Partial is set by the router when shards failed and -allow-partial
	// merged the surviving results; a single shard never sets it.
	Partial bool `json:"partial,omitempty"`
}

// EstimateResponse is the POST /estimate reply: the planner's count of
// each requested pattern's matches on this shard's store, read from the
// index's per-key counts (core.Store.EstimateMatches). The count is exact.
type EstimateResponse struct {
	Estimates []int `json:"estimates"`
}

// ReadyResponse is the GET /readyz reply.
type ReadyResponse struct {
	Facts    int    `json:"facts"`
	Snapshot string `json:"snapshot,omitempty"`
	// Error explains a 503: snapshot integrity failure or draining.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the JSON error envelope every endpoint uses.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Options tunes a Server.
type Options struct {
	// Timeout bounds each query evaluation (0 = unbounded).
	Timeout time.Duration
	// Snapshot is the path the store was loaded from, reported by
	// /readyz so operators and the router can tell shards apart.
	Snapshot string
	// LoadError marks the snapshot as failed (e.g. CRC verification
	// rejected it). The process stays up — operators can inspect /statsz
	// — but /readyz, /query, /estimate and /bind answer 503, so a torn KB
	// is never served: to the shardkb client a 503 is transient, and the
	// shard's other replica answers instead.
	LoadError error
}

// LatencyHistogram counts request latencies in power-of-two microsecond
// buckets; all counters are atomics so request handlers never serialize
// on stats. The zero value is ready to use. cmd/kbrouter shares it for
// its own /statsz.
type LatencyHistogram struct {
	buckets [32]atomic.Uint64 // bucket i: latency < 2^i µs
	count   atomic.Uint64
	sumUS   atomic.Uint64
}

// Observe records one request latency.
func (h *LatencyHistogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := 0
	for us>>b > 0 && b < len(h.buckets)-1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(uint64(us))
}

// quantile returns an upper bound on the q-quantile latency in µs.
func (h *LatencyHistogram) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return uint64(1) << i
		}
	}
	return uint64(1) << (len(h.buckets) - 1)
}

// Summary snapshots the histogram into the /statsz latency block.
func (h *LatencyHistogram) Summary() LatencyStats {
	lat := LatencyStats{
		Count: h.count.Load(),
		P50US: h.quantile(0.50),
		P90US: h.quantile(0.90),
		P99US: h.quantile(0.99),
	}
	if lat.Count > 0 {
		lat.MeanUS = float64(h.sumUS.Load()) / float64(lat.Count)
	}
	return lat
}

// Server is the HTTP handler serving one store.
type Server struct {
	st       *core.Store
	cache    *qcache.LRU[[]byte] // reply heads (see the package doc)
	nonce    string              // "<random hex>.", the per-process half of the epoch
	timeout  time.Duration
	snapshot string
	loadErr  error
	draining atomic.Bool
	mux      *http.ServeMux
	lat      LatencyHistogram
}

// EpochHeader names the response header that carries a server's epoch
// (see the package doc).
const EpochHeader = "Kb-Epoch"

// NewServer wires the handler for one store.
func NewServer(st *core.Store, opt Options) *Server {
	s := &Server{
		st:       st,
		cache:    qcache.NewLRU[[]byte](qcache.Options{}, st.WriteGen),
		nonce:    strconv.FormatUint(rand.Uint64(), 16) + ".",
		timeout:  opt.Timeout,
		snapshot: opt.Snapshot,
		loadErr:  opt.LoadError,
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("/query", s.data(s.handleQuery))
	s.mux.HandleFunc("/estimate", s.data(s.handleEstimate))
	s.mux.HandleFunc("/bind", s.data(s.handleBind))
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// MaxRequestBytes caps a POST body on /query, /estimate and /bind; the
// shardkb client splits a bind step whose rows would not fit.
const MaxRequestBytes = 1 << 20

// readBody reads a POST body of at most MaxRequestBytes into one buffer
// and decodes it with parse — the one reader of /query, /estimate and
// /bind. A nil return means the error response was already written.
func readBody[T any](w http.ResponseWriter, r *http.Request, parse func([]byte) (*T, error)) *T {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"POST a JSON body"})
		return nil
	}
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), MaxRequestBytes)+bytes.MinRead))
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	var req *T
	if err == nil {
		req, err = parse(body.Bytes())
	}
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{"bad request body: " + err.Error()})
		return nil
	}
	return req
}

// DecodePatterns reads and parses the request body of /query and
// /estimate — also the router's, which speaks the same protocol. A nil
// return means the error response was already written.
func DecodePatterns(w http.ResponseWriter, r *http.Request) (*QueryRequest, []core.Pattern) {
	req := readBody(w, r, parseQueryRequest)
	if req == nil {
		return nil, nil
	}
	patterns := make([]core.Pattern, 0, len(req.Patterns))
	for _, line := range req.Patterns {
		p, err := core.ParsePattern(line)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{err.Error()})
			return nil, nil
		}
		patterns = append(patterns, p)
	}
	return req, patterns
}

// HasVars reports whether any pattern position is a variable — false
// means the conjunction is ASK-style.
func HasVars(patterns []core.Pattern) bool {
	for _, p := range patterns {
		if p.S.Var != "" || p.P.Var != "" || p.O.Var != "" {
			return true
		}
	}
	return false
}

// WriteQueryError maps an evaluation error onto the HTTP status the
// protocol uses: 504 for deadline, 499 for client cancellation, 500
// otherwise.
func WriteQueryError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	} else if errors.Is(err, context.Canceled) {
		status = 499 // client closed request
	}
	WriteJSON(w, status, ErrorResponse{err.Error()})
}

// data wraps a data endpoint so that it answers 503 when the snapshot
// failed verification: whatever part of the file loaded before the
// corruption was hit must not be served as the KB.
func (s *Server) data(h http.HandlerFunc) http.HandlerFunc {
	if s.loadErr != nil {
		return func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{"snapshot failed verification: " + s.loadErr.Error()})
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// Read before h evaluates anything: a write racing the evaluation
		// then shows as a new epoch on the next reply, never as a new
		// epoch on older data.
		w.Header().Set(EpochHeader, s.epoch())
		h(w, r)
	}
}

// epoch is the value of EpochHeader for a reply evaluated from now on.
func (s *Server) epoch() string {
	return s.nonce + strconv.FormatUint(s.st.WriteGen(), 10)
}

// AppendRowsHead appends the head of the /query reply for n positional
// rows — row i binds vars[j] to the serialized term cells[i*len(vars)+j] —
// as the JSON encoding of a QueryResponse up to its "cached" member: vars
// sorted, one object per row with its keys in that order, an ask flag
// when there are no variables. AppendRowsTail appends the rest. Together
// with kbserve's miss path, which writes the same head straight from the
// matcher's rows (rowsHead), they are the only encoder of that reply, for
// kbserve and kbrouter alike: a result is written without reflection and
// without a map per row, and both servers cache the head and write a
// fresh tail on each hit.
func AppendRowsHead(dst []byte, vars, cells []string, n int) []byte {
	h := startRowsHead(dst, vars)
	if n > 0 {
		size := 64 + n*(3*len(vars)+2)
		for _, key := range h.keys {
			size += n * len(key)
		}
		for _, cell := range cells[:n*len(vars)] {
			size += len(cell)
		}
		h.buf = slices.Grow(h.buf, size) // exact but for escapes inside cells
		for i := 0; i < n; i++ {
			row := cells[i*len(vars) : (i+1)*len(vars)]
			for k, col := range h.order {
				h.key(k)
				h.buf = appendJSONString(h.buf, row[col])
			}
			h.endRow()
		}
	}
	return h.end()
}

// rowsHead writes the head AppendRowsHead describes one row at a time,
// for a writer that does not know the row count before the last row: per
// row, key(k) and the k-th cell in name order for every column, then
// endRow; end closes the head. A row of no columns (an ASK match) is just
// endRow.
type rowsHead struct {
	buf   []byte
	start int      // len(buf) before the head
	order []int    // the columns, sorted by variable name
	keys  [][]byte // `"name":` of each column, in that order
	rows  int      // rows ended so far
}

// startRowsHead appends the opening of a head for vars, in any order.
func startRowsHead(dst []byte, vars []string) rowsHead {
	h := rowsHead{buf: dst, start: len(dst)}
	if len(vars) == 0 {
		return h
	}
	h.order = make([]int, len(vars))
	for i := range h.order {
		h.order[i] = i
	}
	sort.Slice(h.order, func(a, b int) bool { return vars[h.order[a]] < vars[h.order[b]] })
	h.keys = make([][]byte, len(vars))
	h.buf = append(h.buf, `{"vars":[`...)
	for k, col := range h.order {
		if k > 0 {
			h.buf = append(h.buf, ',')
		}
		h.buf = appendJSONString(h.buf, vars[col])
		h.keys[k] = append(appendJSONString(nil, vars[col]), ':')
	}
	h.buf = append(h.buf, `],"rows":[`...)
	return h
}

// key appends what precedes the k-th cell, in name order, of the current
// row.
func (h *rowsHead) key(k int) {
	switch {
	case k > 0:
		h.buf = append(h.buf, ',')
	case h.rows > 0:
		h.buf = append(h.buf, ',', '{')
	default:
		h.buf = append(h.buf, '{')
	}
	h.buf = append(h.buf, h.keys[k]...)
}

func (h *rowsHead) endRow() {
	if len(h.order) > 0 {
		h.buf = append(h.buf, '}')
	}
	h.rows++
}

// end closes the head: the count, or, for no rows or no variables, the
// shorter forms that replace everything startRowsHead wrote.
func (h *rowsHead) end() []byte {
	switch {
	case len(h.order) == 0:
		return strconv.AppendBool(append(h.buf[:h.start], `{"count":0,"ask":`...), h.rows > 0)
	case h.rows == 0:
		return append(h.buf[:h.start], `{"count":0`...)
	}
	return strconv.AppendInt(append(h.buf, `],"count":`...), int64(h.rows), 10)
}

// AppendRowsTail appends the members of a /query reply that describe one
// answer rather than the result — cached, took_us and, when set, partial
// — and closes the reply AppendRowsHead began.
func AppendRowsTail(dst []byte, cached bool, tookUS int64, partial bool) []byte {
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"took_us":`...)
	dst = strconv.AppendInt(dst, tookUS, 10)
	if partial {
		dst = append(dst, `,"partial":true`...)
	}
	return append(dst, '}', '\n')
}

// WriteRows writes a 200 reply whose body is the concatenation of parts:
// a /query head from AppendRowsHead and its tail, or one slice holding a
// whole reply.
func WriteRows(w http.ResponseWriter, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	for _, p := range parts {
		w.Write(p)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, patterns := DecodePatterns(w, r)
	if req == nil {
		return
	}
	t0 := time.Now()
	key := qcache.Key(patterns, req.Limit)
	head, cached := s.cache.Get(key)
	if !cached {
		// Read before evaluating: a write racing the evaluation leaves
		// the entry stale from the start.
		gen := s.st.WriteGen()
		var err error
		if head, err = s.evaluate(r.Context(), patterns, req.Limit); err != nil {
			s.lat.Observe(time.Since(t0))
			WriteQueryError(w, err)
			return
		}
		s.cache.Put(key, gen, head)
	}
	took := time.Since(t0)
	s.lat.Observe(took)
	// 64 bytes hold any tail: it is allocated once, not grown.
	WriteRows(w, head, AppendRowsTail(make([]byte, 0, 64), cached, took.Microseconds(), false))
}

// heads pools the buffers misses encode into; the cache keeps an exact
// copy.
var heads = sync.Pool{New: func() interface{} { return new([]byte) }}

// evaluate answers a query from the store with the reply head up to
// "cached", which is never modified once returned: the matcher runs from
// an empty row and each row it completes is appended to the head as it
// stands, with no binding map and no intermediate strings.
func (s *Server) evaluate(ctx context.Context, patterns []core.Pattern, limit int) ([]byte, error) {
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	m := s.st.Compile(patterns)
	vars := make([]string, len(m.Vars()))
	for i, v := range m.Vars() {
		vars[i] = string(v)
	}
	buf := heads.Get().(*[]byte)
	defer heads.Put(buf)
	h := startRowsHead((*buf)[:0], vars)
	err := m.Match(ctx, make([]rdf.Term, len(vars)), limit, func(row []rdf.Term) bool {
		for k, col := range h.order {
			h.key(k)
			h.buf = appendTermJSON(h.buf, row[col])
		}
		h.endRow()
		return true
	})
	*buf = h.end()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(*buf), nil
}

// handleEstimate serves the router's planning probe: per-pattern match
// counts from the index's per-key counts, with unbound variables as
// wildcards.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	req, patterns := DecodePatterns(w, r)
	if req == nil {
		return
	}
	ests := make([]int, len(patterns))
	for i, p := range patterns {
		ests[i] = s.st.PatternEstimate(p, nil)
	}
	WriteJSON(w, http.StatusOK, EstimateResponse{Estimates: ests})
}

// SetDraining flips the shard in or out of drain mode. While draining,
// /readyz answers 503 so routers and load balancers stop sending new
// work, while in-flight and keep-alive requests still complete —
// Run sets it before starting the shutdown deadline.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Facts: s.st.Len(), Snapshot: s.snapshot}
	switch {
	case s.loadErr != nil:
		// The snapshot failed integrity verification: serving it would
		// present a torn, silently short KB as healthy. Never ready (and
		// the data endpoints are shut, see Server.data).
		resp.Error = "snapshot failed verification: " + s.loadErr.Error()
		WriteJSON(w, http.StatusServiceUnavailable, resp)
	case s.draining.Load():
		resp.Error = "draining"
		WriteJSON(w, http.StatusServiceUnavailable, resp)
	case resp.Facts == 0:
		// An empty store means the shard is still loading (or was pointed
		// at the wrong snapshot); the router must not route here.
		resp.Error = "empty store"
		WriteJSON(w, http.StatusServiceUnavailable, resp)
	default:
		w.Header().Set(EpochHeader, s.epoch())
		WriteJSON(w, http.StatusOK, resp)
	}
}

// StatszResponse is the GET /statsz reply.
type StatszResponse struct {
	Cache   CacheStats   `json:"cache"`
	Latency LatencyStats `json:"latency"`
	Store   core.Stats   `json:"store"`
}

// CacheStats augments the raw qcache counters with the derived hit rate.
type CacheStats struct {
	qcache.Stats
	HitRate float64 `json:"hit_rate"`
}

// LatencyStats summarizes the query latency histogram.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  uint64  `json:"p50_us"`
	P90US  uint64  `json:"p90_us"`
	P99US  uint64  `json:"p99_us"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	WriteJSON(w, http.StatusOK, StatszResponse{
		Cache:   CacheStats{Stats: cs, HitRate: cs.HitRate()},
		Latency: s.lat.Summary(),
		Store:   s.st.Stats(),
	})
}
