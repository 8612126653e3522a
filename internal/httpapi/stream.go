package httpapi

// Streamed batch rank frames (DESIGN.md §15). Each item frame carries its
// query's input index; the terminal frame is {"done":true,...} — its
// absence tells a client the stream was cut mid-flight. The format is
// NDJSON by default; a client sending "Accept: text/event-stream" gets
// the same frames as SSE data events.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/netsearch"
)

// streamItem is one query's frame in a rank stream.
type streamItem struct {
	Index  int                  `json:"index"`
	Ranked []netsearch.RankedDB `json:"ranked,omitempty"`
	Error  string               `json:"error,omitempty"`
}

// streamDone is the terminal frame: Results counts the item frames sent,
// and Degraded mirrors the buffered response's flag.
type streamDone struct {
	Done     bool `json:"done"`
	Results  int  `json:"results"`
	Degraded bool `json:"degraded,omitempty"`
}

// wantStream reports whether a batch rank request asked for a streamed
// response (?stream=1).
func wantStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// streamWriter writes rank stream frames, flushing after every frame.
// Headers are written lazily on the first frame, so a handler that fails
// before emitting anything can still answer with a plain error response.
type streamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	sse     bool
	started bool
}

// newStreamWriter negotiates the stream format for the request. The
// response is untouched until the first frame.
func newStreamWriter(w http.ResponseWriter, r *http.Request) *streamWriter {
	flusher, _ := w.(http.Flusher)
	return &streamWriter{
		w:       w,
		flusher: flusher,
		sse:     strings.Contains(r.Header.Get("Accept"), "text/event-stream"),
	}
}

func (sw *streamWriter) item(index int, it netsearch.RankedBatch) error {
	return sw.frame(streamItem{Index: index, Ranked: it.Ranked, Error: it.Error})
}

func (sw *streamWriter) done(results int, degraded bool) error {
	return sw.frame(streamDone{Done: true, Results: results, Degraded: degraded})
}

func (sw *streamWriter) frame(v any) error {
	if !sw.started {
		sw.started = true
		h := sw.w.Header()
		if sw.sse {
			h.Set("Content-Type", "text/event-stream")
		} else {
			h.Set("Content-Type", "application/x-ndjson")
		}
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no") // tell buffering proxies not to hold frames
		sw.w.WriteHeader(http.StatusOK)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if sw.sse {
		if _, err := fmt.Fprintf(sw.w, "data: %s\n\n", b); err != nil {
			return err
		}
	} else {
		b = append(b, '\n')
		if _, err := sw.w.Write(b); err != nil {
			return err
		}
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}
