// Package serve implements the single-shard HTTP serving surface of the
// knowledge base: request parsing, cache-backed conjunctive query
// evaluation with per-request deadlines, planner estimates, readiness,
// and operational counters. cmd/kbserve wraps it in a process; the
// scatter/gather tier (internal/shardkb, cmd/kbrouter) talks to N of
// these over the same wire protocol, and tests and experiments drive it
// in-process through httptest.
//
// Endpoints:
//
//	POST /query     {"patterns": [...], "limit": N} -> QueryResponse
//	POST /estimate  {"patterns": [...]}             -> EstimateResponse
//	POST /bind      one pattern + positional binding rows -> the rows'
//	                matches, positional (bind.go): the router's join step,
//	                one request per shard per step however many bindings
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
// There is one matcher and one encoder. /query (through the result
// cache), /estimate and /bind all run core.Matcher — /bind seeds its
// slots from the request's rows, the others start from an empty row — and
// every /query reply, here and in cmd/kbrouter, is written by
// AppendRowsHead and AppendRowsTail; encoding/json encodes only the small
// fixed-shape replies (errors, /estimate, /readyz, /statsz).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/qcache"
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

// EstimateResponse is the POST /estimate reply: the planner's
// index-cardinality upper bound for each requested pattern on this
// shard's store (core.Store.EstimateMatches). A zero is exact — the
// pattern cannot match here.
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
	// Cache configures the result cache (internal/qcache).
	Cache qcache.Options
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
	cache    *qcache.Cache
	nonce    string // "<random hex>.", the per-process half of the epoch
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
		cache:    qcache.New(st, opt.Cache),
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

// DecodePatterns parses the shared request envelope of /query and
// /estimate — also the router's, which speaks the same protocol. A nil
// return means the error response was already written.
func DecodePatterns(w http.ResponseWriter, r *http.Request) (*QueryRequest, []core.Pattern) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"POST a JSON body"})
		return nil, nil
	}
	// Strict: a misspelt field ("limt") or a second JSON value would
	// otherwise be dropped silently and the query answered without it.
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON body")
		}
	}
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{"bad request body: " + err.Error()})
		return nil, nil
	}
	if len(req.Patterns) == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{"no patterns"})
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
	return &req, patterns
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
// when there are no variables. AppendRowsTail appends the rest. The two
// are the only encoder of that reply, for kbserve and kbrouter alike: a
// result is written without reflection and without a map per row, and
// the router's cache keeps a head and writes a fresh tail on each hit.
func AppendRowsHead(dst []byte, vars, cells []string, n int) []byte {
	dst = append(dst, '{')
	switch {
	case len(vars) == 0:
		dst = append(dst, `"count":0,"ask":`...)
		dst = strconv.AppendBool(dst, n > 0)
	case n == 0:
		dst = append(dst, `"count":0`...)
	default:
		order := make([]int, len(vars))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return vars[order[a]] < vars[order[b]] })
		keys := make([][]byte, len(vars)) // `"name":`, in sorted order
		dst = append(dst, `"vars":[`...)
		for k, col := range order {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, vars[col])
			keys[k] = append(appendJSONString(nil, vars[col]), ':')
		}
		dst = append(dst, `],"rows":[`...)
		size := 64 + n*(3*len(vars)+2)
		for _, key := range keys {
			size += n * len(key)
		}
		for _, cell := range cells[:n*len(vars)] {
			size += len(cell)
		}
		dst = slices.Grow(dst, size) // exact but for escapes inside cells
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			row := cells[i*len(vars) : (i+1)*len(vars)]
			sep := byte('{')
			for k, col := range order {
				dst = append(dst, sep)
				sep = ','
				dst = append(dst, keys[k]...)
				dst = appendJSONString(dst, row[col])
			}
			dst = append(dst, '}')
		}
		dst = append(dst, `],"count":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return dst
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

// BindingCells flattens the bindings of a conjunction into the positional
// form AppendRowsHead takes: the conjunction's variables, sorted, and
// one serialized cell per variable per binding.
func BindingCells(patterns []core.Pattern, bindings []core.Binding) (vars, cells []string) {
	for _, p := range patterns {
		for _, pt := range [3]core.PatternTerm{p.S, p.P, p.O} {
			if pt.Var != "" && !slices.Contains(vars, string(pt.Var)) {
				vars = append(vars, string(pt.Var))
			}
		}
	}
	sort.Strings(vars)
	cells = make([]string, 0, len(vars)*len(bindings))
	for _, b := range bindings {
		for _, v := range vars {
			cells = append(cells, b[core.Var(v)].String())
		}
	}
	return vars, cells
}

// WriteRows writes a 200 /query reply whose body is the concatenation of
// parts: a head from AppendRowsHead and its tail, or one slice holding
// both.
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
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	t0 := time.Now()
	bindings, cached, err := s.cache.Query(ctx, patterns, req.Limit)
	took := time.Since(t0)
	s.lat.Observe(took)
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	vars, cells := BindingCells(patterns, bindings)
	WriteRows(w, AppendRowsTail(AppendRowsHead(nil, vars, cells, len(bindings)), cached, took.Microseconds(), false))
}

// handleEstimate serves the router's planning probe: per-pattern
// index-cardinality upper bounds, with unbound variables as wildcards.
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
