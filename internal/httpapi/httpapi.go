// Package httpapi is the HTTP surface both serving tiers share — the
// single-process selection service and the cluster front. It holds the
// request middleware (trace IDs, status-class counters, latency, one log
// line per request), the JSON envelope and error-to-status mapping, load
// shedding and k-degradation, and the rank endpoints themselves:
//
//	GET  /rank?q=apple+pie&alg=cori&k=5  -> [{"name":…,"score":…}…]
//	POST /rank/batch                     {"queries":[...],"alg":"cori","k":5}
//	                                     -> {"results":[{"ranked":[...]}...]}
//	POST /rank/batch?stream=1            same body -> NDJSON frames, one per
//	                                     query as it completes (SSE with
//	                                     Accept: text/event-stream)
//
// A tier plugs its rank functions into a Surface; everything a client can
// observe about the envelope is therefore identical on both tiers.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/admission"
	"repro/internal/netsearch"
	"repro/internal/telemetry"
)

// The error classes the surface maps to statuses (StatusFor). The service
// re-exports them under its own name; errors that cross the cluster wire
// as text are re-classified onto them.
var (
	// ErrInvalid marks arguments the caller got wrong (unknown algorithm,
	// unusable query): 400.
	ErrInvalid = errors.New("invalid argument")
	// ErrUnknownDatabase marks operations on unregistered names: 404.
	ErrUnknownDatabase = errors.New("service: unknown database")
	// ErrNoModels marks a federation that has not learned any model yet —
	// a service-state condition, not a client mistake: 503.
	ErrNoModels = errors.New("service: no databases have learned models yet")
)

// ErrEmptyBatch refuses a batch with no queries.
var ErrEmptyBatch = fmt.Errorf("service: empty batch: %w", ErrInvalid)

// MaxBatchQueries bounds one batch request; a larger batch is the client's
// mistake (400), not an invitation to unbounded work per admission slot.
const MaxBatchQueries = 1024

// MaxBodyBytes bounds every decoded request body. A full batch of
// MaxBatchQueries realistic queries fits with room to spare.
const MaxBodyBytes = 1 << 20

// StatusFor maps an error to its response status: the caller's mistakes
// are 400, unknown names 404, an unready federation 503, and everything
// else — a failed upstream database or shard slot — a 502 the caller can
// alert on.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDatabase):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoModels):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers with v as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteErr answers {"error": err} with the given status.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error()})
}

// Shed answers a load-shed request: 429 with the gate's Retry-After hint.
func Shed(w http.ResponseWriter, retryAfterSeconds int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	WriteJSON(w, http.StatusTooManyRequests, errorBody{Error: "service overloaded, retry later"})
}

// Decode reads r's JSON body into v, reading at most MaxBodyBytes. On
// failure it has already answered — 413 for an oversized body, 400 for
// anything else — and returns false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
		return false
	}
	WriteErr(w, http.StatusBadRequest, err)
	return false
}

type traceKey struct{}

// TraceFromContext returns the trace ID the middleware assigned to this
// request ("" outside a traced request).
func TraceFromContext(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streamed responses push each
// frame through the middleware instead of buffering until the handler
// returns.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Metrics are a Surface's request-path instruments. A tier binds them
// once, when its registry is installed, and hands them to the Surface.
type Metrics struct {
	reg                       *telemetry.Registry // served at /metrics, /debug/vars
	seconds                   *telemetry.Histogram
	requests, r4xx, r5xx      *telemetry.Counter
	classes                   [7]*telemetry.Counter // by status/100, then "other"
	streamRanks, streamAborts *telemetry.Counter
}

// NewMetrics binds a Surface's instruments from reg (nil: discard); the
// stream counters are <tier>_stream_ranks_total and _stream_aborts_total.
func NewMetrics(reg *telemetry.Registry, tier string) *Metrics {
	b := reg.Bind()
	m := &Metrics{
		reg:          reg,
		seconds:      reg.Histogram("http_request_seconds"),
		requests:     b.Counter("http_requests_total"),
		r4xx:         b.Counter("http_4xx_total"),
		r5xx:         b.Counter("http_5xx_total"),
		streamRanks:  b.Counter(tier + "_stream_ranks_total"),
		streamAborts: b.Counter(tier + "_stream_aborts_total"),
	}
	for c := range 6 {
		m.classes[c] = b.Counter(`http_responses_total{class="` + strconv.Itoa(c) + `xx"}`)
	}
	m.classes[6] = b.Counter(`http_responses_total{class="other"}`)
	return m
}

// Surface is one tier's HTTP serving surface. The tier supplies its
// observability sinks, its admission gate and its rank functions; the
// Surface supplies everything else.
type Surface struct {
	// Tier names the tier in log lines.
	Tier string
	// Metrics, Logger and Gate are resolved per request, so a tier may
	// swap them at run time; each must be cheap (an atomic load, not a
	// lock). A nil gate admits everything.
	Metrics func() *Metrics
	Logger  func() *slog.Logger
	Gate    func() *admission.Gate
	// Traces mints trace IDs for requests that arrive without one.
	Traces *telemetry.TraceIDs

	// The rank functions receive the request's trace ID, so a tier that
	// fans out can stamp it on what it sends.
	//
	// Rank answers GET /rank: the ranking and the X-Cache disposition
	// ("" sends no X-Cache header).
	Rank func(query, alg string, k int, trace string) ([]netsearch.RankedDB, string, error)
	// Batch answers a buffered POST /rank/batch. Whole-batch failures are
	// its error; per-query ones ride in the items.
	Batch func(queries []string, alg string, k int, trace string) ([]netsearch.RankedBatch, error)
	// Stream answers a streamed POST /rank/batch: emit once per query, in
	// input order. Whole-batch failures must be returned before the first
	// emit; an emit error must abort the stream and be returned.
	Stream func(queries []string, alg string, k int, trace string, emit func(i int, item netsearch.RankedBatch) error) error
}

// Handler routes the rank endpoints, /metrics and /debug/vars onto mux and
// returns mux wrapped in the surface's middleware.
func (s *Surface) Handler(mux *http.ServeMux) http.Handler {
	mux.HandleFunc("/rank", s.handleRank)
	mux.HandleFunc("/rank/batch", s.handleRankBatch)
	mux.HandleFunc("/metrics", s.serveRegistry(telemetry.Handler))
	mux.HandleFunc("/debug/vars", s.serveRegistry(telemetry.VarsHandler))
	return s.instrument(mux)
}

// serveRegistry serves the current registry through handler (404: none).
func (s *Surface) serveRegistry(handler func(*telemetry.Registry) http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reg := s.Metrics().reg; reg != nil {
			handler(reg).ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	}
}

// Pprof mounts net/http/pprof under /debug/pprof/ in front of next (opt-in:
// profiling endpoints are not for every deployment).
func Pprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

// instrument is the observability middleware: trace ID assignment
// (honoring an incoming X-Trace-Id, echoed back, and carried to handlers
// in the request context), per-status-class counters, request latency,
// and one structured log line per request.
func (s *Surface) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m, lg := s.Metrics(), s.Logger()
		trace := r.Header.Get("X-Trace-Id")
		if trace == "" {
			trace = s.Traces.Next()
		}
		w.Header().Set("X-Trace-Id", trace)
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, trace))

		sp := m.seconds.Start()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		d := sp.End()

		m.requests.Inc()
		m.classes[min(uint(sw.status/100), 6)].Inc()
		switch {
		case sw.status >= 500:
			m.r5xx.Inc()
		case sw.status >= 400:
			m.r4xx.Inc()
		}
		lg.Info("http request", "tier", s.Tier,
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"elapsed", d, telemetry.TraceKey, trace)
	})
}

// admit runs the admission step: a refused request is answered 429 and
// ok is false; an admitted one gets its ticket (the caller releases it)
// and k clamped under degradation, announced in X-Degraded-K.
func (s *Surface) admit(w http.ResponseWriter, k int) (ticket *admission.Ticket, clamped int, ok bool) {
	gate := s.Gate()
	ticket, ok = gate.Admit()
	if !ok {
		Shed(w, gate.RetryAfterSeconds())
		return nil, k, false
	}
	clamped = ticket.ClampK(k)
	if clamped != k {
		w.Header().Set("X-Degraded-K", strconv.Itoa(clamped))
	}
	return ticket, clamped, true
}

func (s *Surface) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	q := r.URL.Query()
	k, _ := strconv.Atoi(q.Get("k"))
	ticket, k, ok := s.admit(w, k)
	if !ok {
		return
	}
	defer ticket.Release()
	ranked, cache, err := s.Rank(q.Get("q"), q.Get("alg"), k, TraceFromContext(r.Context()))
	if cache != "" {
		w.Header().Set("X-Cache", cache)
	}
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, ranked)
}

// BatchRequest is the POST /rank/batch body.
type BatchRequest struct {
	Queries []string `json:"queries"`
	Alg     string   `json:"alg,omitempty"`
	K       int      `json:"k,omitempty"`
}

// BatchResponse is the buffered POST /rank/batch reply: one item per
// query, in request order. Degraded reports that admission clamped k.
type BatchResponse struct {
	Results  []netsearch.RankedBatch `json:"results"`
	Degraded bool                    `json:"degraded,omitempty"`
}

func (s *Surface) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req BatchRequest
	if !Decode(w, r, &req) {
		return
	}
	switch {
	case len(req.Queries) == 0:
		WriteErr(w, http.StatusBadRequest, ErrEmptyBatch)
		return
	case len(req.Queries) > MaxBatchQueries:
		WriteErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the %d-query limit: %w",
				len(req.Queries), MaxBatchQueries, ErrInvalid))
		return
	}
	// One batch holds one admission slot: the in-flight unit is the
	// request (what bounds memory and scatter fan-out), not the query.
	ticket, k, ok := s.admit(w, req.K)
	if !ok {
		return
	}
	defer ticket.Release()
	if wantStream(r) {
		s.streamBatch(w, r, req, k, k != req.K)
		return
	}
	items, err := s.Batch(req.Queries, req.Alg, k, TraceFromContext(r.Context()))
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, BatchResponse{Results: items, Degraded: k != req.K})
}

// streamBatch serves POST /rank/batch?stream=1. Whole-batch refusals
// arrive before the first frame and are answered as plain JSON errors,
// exactly like the buffered path; once frames flow, a failure can only
// cut the stream. The admission ticket is released after the last flush.
func (s *Surface) streamBatch(w http.ResponseWriter, r *http.Request, req BatchRequest, k int, degraded bool) {
	m := s.Metrics()
	sw := newStreamWriter(w, r)
	ctx := r.Context()
	results := 0
	err := s.Stream(req.Queries, req.Alg, k, TraceFromContext(ctx), func(i int, item netsearch.RankedBatch) error {
		if cerr := ctx.Err(); cerr != nil {
			// The client is gone: stop ranking for nobody. The sentinel
			// tells a scatter below not to fail over or blame a shard.
			return fmt.Errorf("%w: %v", netsearch.ErrStreamCanceled, cerr)
		}
		results++
		return sw.item(i, item)
	})
	if err == nil {
		err = sw.done(results, degraded)
	}
	switch {
	case err == nil:
		m.streamRanks.Inc()
	case !sw.started:
		WriteErr(w, StatusFor(err), err)
	default:
		// Mid-stream cut: the client is gone (context canceled or a write
		// failed). There is no one left to tell.
		m.streamAborts.Inc()
	}
}
