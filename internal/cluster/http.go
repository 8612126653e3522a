package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/admission"
	"repro/internal/httpapi"
	"repro/internal/netsearch"
	"repro/internal/service"
)

// Front HTTP API — the cluster's client-facing surface, mirroring the
// single-process selectd endpoints it stands in for:
//
//	GET    /rank, POST /rank/batch         the shared rank surface (httpapi),
//	                                       scatter-gathered
//	POST   /databases                      {"name":"x","addr":"host:port"}
//	                                       (routed to the owning slot's replicas)
//	DELETE /databases/{name}               (routed likewise)
//	GET    /cluster                        -> topology + per-replica health
//	GET    /healthz
//	GET    /metrics, /debug/vars           (when Options.Metrics was set)
//
// Sampling stays shard-side: replicas sample their registered databases
// through their own HTTP APIs with identical seeds, which (sampling
// being deterministic) keeps replica models byte-identical.

// Handler returns the front tier's HTTP handler.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "front", "slots": f.ring.Slots()})
	})
	mux.HandleFunc("/databases", f.handleDatabases)
	mux.HandleFunc("/databases/", f.handleDatabase)
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"slots":    f.ring.Slots(),
			"replicas": f.Health(),
		})
	})
	surface := &httpapi.Surface{
		Tier:    "cluster",
		Metrics: func() *httpapi.Metrics { return f.http },
		Logger:  func() *slog.Logger { return f.logger },
		Gate:    func() *admission.Gate { return f.gate },
		Traces:  f.traces,
		Rank: func(query, alg string, k int, trace string) ([]netsearch.RankedDB, string, error) {
			ranked, err := f.Rank(query, alg, k, trace)
			return ranked, "", err
		},
		Batch:  f.RankBatch,
		Stream: f.RankBatchStream,
	}
	return surface.Handler(mux)
}

func (f *Front) handleDatabases(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteErr(w, http.StatusMethodNotAllowed, errors.New("POST only (listing is served by the shards)"))
		return
	}
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
	if err := service.ValidateName(req.Name); err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	slot := f.ring.Owner(req.Name)
	if err := f.registerOnSlot(slot, req.Name, req.Addr); err != nil {
		httpapi.WriteErr(w, httpapi.StatusFor(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusCreated, map[string]any{"registered": req.Name, "slot": slot})
}

func (f *Front) handleDatabase(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/databases/")
	name, err := url.PathUnescape(rest)
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad database name %q: %w", rest, err))
		return
	}
	if name == "" || r.Method != http.MethodDelete {
		httpapi.WriteErr(w, http.StatusNotFound, errors.New("unknown endpoint (shard-local operations are served by the shards)"))
		return
	}
	slot := f.ring.Owner(name)
	if err := f.unregisterOnSlot(slot, name); err != nil {
		httpapi.WriteErr(w, httpapi.StatusFor(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"deleted": name, "slot": slot})
}

// registerOnSlot places a database on every replica of its owning slot.
// "Already registered" from a replica counts as success, so the call is
// idempotent and a retry heals a previous partial failure instead of
// conflicting with it.
func (f *Front) registerOnSlot(slot int, name, addr string) error {
	// Any registration attempt — even a failed one, which may have changed
	// some replicas — moves the topology epoch, invalidating the front's
	// result cache wholesale. Invalidation is cheap; serving a fused
	// ranking that predates a placement change is not.
	defer f.epoch.Add(1)
	for _, r := range f.reps[slot] {
		c, err := f.connect(r)
		if err != nil {
			f.recordFailure(r, err)
			return fmt.Errorf("cluster: register %q on slot %d replica %s: %w", name, slot, r.addr, err)
		}
		err = classify(c.RegisterDB(name, addr))
		switch {
		case err == nil, errors.Is(err, service.ErrExists):
			// Registered, or already there: idempotent success.
		case errors.Is(err, service.ErrInvalid):
			// The client's mistake, not the replica's health.
			return fmt.Errorf("cluster: register %q on slot %d replica %s: %w", name, slot, r.addr, err)
		default:
			f.recordFailure(r, err)
			return fmt.Errorf("cluster: register %q on slot %d replica %s: %w", name, slot, r.addr, err)
		}
	}
	return nil
}

// unregisterOnSlot removes a database from every replica of its owning
// slot. Only when every replica reports the name unknown does the front
// answer 404; one replica knowing it means a previous partial state is
// being healed.
func (f *Front) unregisterOnSlot(slot int, name string) error {
	defer f.epoch.Add(1) // see registerOnSlot
	unknown := 0
	for _, r := range f.reps[slot] {
		c, err := f.connect(r)
		if err != nil {
			f.recordFailure(r, err)
			return fmt.Errorf("cluster: unregister %q on slot %d replica %s: %w", name, slot, r.addr, err)
		}
		err = classify(c.UnregisterDB(name))
		switch {
		case err == nil:
		case errors.Is(err, service.ErrUnknownDatabase):
			unknown++
		default:
			f.recordFailure(r, err)
			return fmt.Errorf("cluster: unregister %q on slot %d replica %s: %w", name, slot, r.addr, err)
		}
	}
	if unknown == len(f.reps[slot]) {
		return fmt.Errorf("cluster: %q on slot %d: %w", name, slot, service.ErrUnknownDatabase)
	}
	return nil
}
