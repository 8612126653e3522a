package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Exposition: one registry, two wire formats. WriteJSON emits the
// Snapshot as JSON (map keys sorted by encoding/json — golden-testable);
// WritePrometheus emits the Prometheus text exposition format (version
// 0.0.4), grouping samples by metric family and iterating families and
// label sets in sorted order.

// WriteJSON writes the registry's snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// splitName separates a metric name into its base and literal label set:
// `x_total{db="a"}` → ("x_total", `db="a"`). A name without braces has an
// empty label set.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// family groups every metric of one kind sharing a base name.
type family struct {
	base    string
	kind    string // "counter", "gauge", "histogram"
	entries []familyEntry
}

type familyEntry struct {
	labels string
	value  int64             // counter/gauge
	hist   HistogramSnapshot // histogram
}

// families buckets a snapshot into sorted metric families.
func families(snap Snapshot) []family {
	byBase := map[string]*family{}
	add := func(name, kind string, e familyEntry) {
		base, labels := splitName(name)
		f := byBase[base]
		if f == nil {
			f = &family{base: base, kind: kind}
			byBase[base] = f
		}
		e.labels = labels
		f.entries = append(f.entries, e)
	}
	for name, v := range snap.Counters {
		add(name, "counter", familyEntry{value: v})
	}
	for name, v := range snap.Gauges {
		add(name, "gauge", familyEntry{value: v})
	}
	for name, h := range snap.Histograms {
		add(name, "histogram", familyEntry{hist: h})
	}
	out := make([]family, 0, len(byBase))
	for _, f := range byBase {
		sort.Slice(f.entries, func(i, j int) bool { return f.entries[i].labels < f.entries[j].labels })
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// joinLabels merges a base label set with one extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// braced renders a label set as a metric-name suffix ("" when empty).
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format. Output is buffered (a histogram is one line per bucket); a write
// error stops it and is returned.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range families(r.Snapshot()) {
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.base, f.kind)
		for _, e := range f.entries {
			if f.kind != "histogram" {
				fmt.Fprintf(bw, "%s%s %d\n", f.base, braced(e.labels), e.value)
				continue
			}
			for i, bound := range e.hist.Bounds {
				le := `le="` + strconv.FormatFloat(bound, 'g', -1, 64) + `"`
				fmt.Fprintf(bw, "%s_bucket{%s} %d\n", f.base, joinLabels(e.labels, le), e.hist.Cumulative[i])
			}
			fmt.Fprintf(bw, "%s_bucket{%s} %d\n", f.base, joinLabels(e.labels, `le="+Inf"`), e.hist.Count)
			fmt.Fprintf(bw, "%s_sum%s %g\n", f.base, braced(e.labels), e.hist.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", f.base, braced(e.labels), e.hist.Count)
		}
	}
	return bw.Flush()
}

// ContentTypePrometheus is the content type of the text exposition format.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry at a /metrics endpoint with Accept
// negotiation: a client whose Accept header names application/json gets
// the JSON snapshot, everything else (Prometheus scrapers send text/plain
// or */*) gets the text exposition format. `?format=json` and
// `?format=prometheus` override the header.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if wantsJSON(req) {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypePrometheus)
		r.WritePrometheus(w)
	})
}

// wantsJSON decides the response format for Handler.
func wantsJSON(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "json":
		return true
	case "prometheus", "text":
		return false
	}
	for _, part := range strings.Split(req.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == "application/json" {
			return true
		}
	}
	return false
}

// VarsHandler serves the registry as always-JSON, the /debug/vars
// (expvar) convention.
func VarsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
}
