package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/httpapi"
)

// HTTP API. The handler exposes the service's operations as JSON
// endpoints, so a selection service can run as a standalone daemon
// (cmd/selectd):
//
//	GET    /databases                      -> []DBStatus
//	POST   /databases                      {"name":"x","addr":"host:port"}
//	DELETE /databases/{name}
//	POST   /databases/{name}/sample        SampleOptions (all optional)
//	GET    /databases/{name}/summary?metric=avg-tf&k=20
//	GET    /rank, POST /rank/batch         the shared rank surface (httpapi)
//	GET    /healthz
//	GET    /metrics                        (when SetMetrics was called;
//	                                        JSON or Prometheus text per Accept)
//	GET    /debug/vars                     (when SetMetrics was called; JSON)
//
// Every request is assigned a trace ID (honoring an incoming X-Trace-Id
// header), echoed back in the response's X-Trace-Id header, logged, and —
// for sampling requests — propagated down through the netsearch wire
// protocol so remote-side logs correlate with the originating request.

// Handler returns the HTTP handler for the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/databases", s.handleDatabases)
	mux.HandleFunc("/databases/", s.handleDatabase)
	surface := &httpapi.Surface{
		Tier:    "service",
		Metrics: func() *httpapi.Metrics { return s.inst.Load().http },
		Logger:  s.log,
		Gate:    s.gate.Load,
		Traces:  s.traces,
		// X-Cache reports how the result was served: "hit" (cached,
		// including single-flight waits on an identical in-flight query),
		// "miss" (computed and cached), or "bypass" (cache disabled or bad
		// request).
		Rank: func(query, alg string, k int, _ string) ([]RankedDB, string, error) {
			return s.rankCached(query, alg, k)
		},
		Batch: func(queries []string, alg string, k int, _ string) ([]BatchItem, error) {
			return s.RankBatch(queries, alg, k)
		},
		Stream: func(queries []string, alg string, k int, _ string, emit func(int, BatchItem) error) error {
			return s.RankBatchStream(queries, alg, k, emit)
		},
	}
	return surface.Handler(mux)
}

func (s *Service) handleDatabases(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		httpapi.WriteJSON(w, http.StatusOK, s.Databases())
	case http.MethodPost:
		var req struct {
			Name string `json:"name"`
			Addr string `json:"addr"`
		}
		if !httpapi.Decode(w, r, &req) {
			return
		}
		if req.Addr == "" {
			httpapi.WriteErr(w, http.StatusBadRequest, errors.New("addr is required"))
			return
		}
		// An empty (or "/"-only) name would register a database that
		// /databases/{name} can never route to — it could never be
		// sampled or unregistered over HTTP. Reject it up front.
		if err := ValidateName(req.Name); err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.Register(req.Name, req.Addr); err != nil {
			httpapi.WriteErr(w, http.StatusConflict, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"registered": req.Name})
	default:
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("GET or POST"))
	}
}

// handleDatabase routes /databases/{name}[/sample|/summary]. Routing
// works on the escaped path so a database name containing "/" (sent as
// %2F) stays one segment; the name is unescaped before lookup.
func (s *Service) handleDatabase(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/databases/")
	parts := strings.SplitN(rest, "/", 2)
	name, err := url.PathUnescape(parts[0])
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad database name %q: %w", parts[0], err))
		return
	}
	if name == "" {
		httpapi.WriteErr(w, http.StatusNotFound, errors.New("missing database name"))
		return
	}
	action := ""
	if len(parts) == 2 {
		action = parts[1]
	}
	switch {
	case action == "" && r.Method == http.MethodDelete:
		if err := s.Unregister(name); err != nil {
			httpapi.WriteErr(w, httpapi.StatusFor(err), err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
	case action == "sample" && r.Method == http.MethodPost:
		var opts SampleOptions
		// An empty body means default options.
		if err := json.NewDecoder(r.Body).Decode(&opts); err != nil && !errors.Is(err, io.EOF) {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		// The run inherits the request's trace ID; the service pushes it
		// down to the netsearch frames the run sends.
		opts.TraceID = httpapi.TraceFromContext(r.Context())
		st, err := s.Sample(name, opts)
		if err != nil {
			httpapi.WriteErr(w, httpapi.StatusFor(err), err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, st)
	case action == "summary" && r.Method == http.MethodGet:
		q := r.URL.Query()
		k, _ := strconv.Atoi(q.Get("k"))
		rows, err := s.Summary(name, q.Get("metric"), k)
		if err != nil {
			httpapi.WriteErr(w, httpapi.StatusFor(err), err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, rows)
	default:
		httpapi.WriteErr(w, http.StatusNotFound, errors.New("unknown endpoint"))
	}
}
