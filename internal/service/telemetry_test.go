package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/telemetry"
)

// metricsFixture is httpFixture with an installed telemetry registry (and
// the service handle itself, which httpFixture hides).
func metricsFixture(t *testing.T) (*httptest.Server, *Service, []*experiments.FederationDB) {
	t.Helper()
	dbs, err := experiments.Federation(2, 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), nil)
	t.Cleanup(func() { svc.Close() })
	svc.SetMetrics(telemetry.NewRegistry())
	for _, db := range dbs {
		ns, err := netsearch.Serve(db.Index, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		if err := svc.Register(db.Name, ns.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts, svc, dbs
}

func get(t *testing.T, url string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHTTPMetricsAcceptNegotiation(t *testing.T) {
	ts, _, dbs := metricsFixture(t)
	resp := postJSON(t, ts.URL+"/databases/"+dbs[0].Name+"/sample", SampleOptions{Docs: 30}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample = %d", resp.StatusCode)
	}

	// Default (no JSON in Accept): Prometheus text exposition, with the
	// sampling the request above just did visible as nonzero counters.
	resp, body := get(t, ts.URL+"/metrics", nil)
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentTypePrometheus {
		t.Errorf("default Content-Type = %q, want %q", got, telemetry.ContentTypePrometheus)
	}
	for _, want := range []string{
		"# TYPE service_samples_total counter",
		"service_samples_total 1",
		"service_sampled_docs_total 3", // 30-ish docs: prefix check below
		"netsearch_dials_total",
		"http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus body missing %q", want)
		}
	}

	// Accept: application/json gets the JSON snapshot with the same data.
	resp, body = get(t, ts.URL+"/metrics", http.Header{"Accept": {"application/json"}})
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("JSON Content-Type = %q", got)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("unmarshal JSON snapshot: %v", err)
	}
	if snap.Counters["service_samples_total"] != 1 {
		t.Errorf("service_samples_total = %d, want 1", snap.Counters["service_samples_total"])
	}
	if snap.Counters["netsearch_dials_total"] == 0 {
		t.Error("sampling left netsearch_dials_total at 0")
	}
	if snap.Histograms["service_sample_seconds"].Count != 1 {
		t.Errorf("service_sample_seconds count = %d, want 1", snap.Histograms["service_sample_seconds"].Count)
	}

	// ?format=json overrides a non-JSON Accept header.
	resp, body = get(t, ts.URL+"/metrics?format=json", http.Header{"Accept": {"text/plain"}})
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("format=json Content-Type = %q", got)
	}
	if !json.Valid([]byte(body)) {
		t.Error("format=json body is not JSON")
	}
	_ = resp
}

func TestHTTPMetricsWithoutRegistryIs404(t *testing.T) {
	ts, _ := httpFixture(t) // no SetMetrics
	resp, _ := get(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without registry = %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/debug/vars", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars without registry = %d, want 404", resp.StatusCode)
	}
}

func TestSetMetricsSwapsWhileServing(t *testing.T) {
	// The handler is built before any registry: each request records into
	// the registry installed when it runs, and nil turns telemetry off.
	svc := New(analysis.Database(), nil)
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	rank := func() {
		if resp, _ := get(t, ts.URL+"/rank?q=data", nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("cold /rank = %d, want 503", resp.StatusCode)
		}
	}
	requests := func(reg *telemetry.Registry) int64 { return reg.Counter("http_requests_total").Value() }

	rank()
	if resp, _ := get(t, ts.URL+"/metrics", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics before SetMetrics = %d, want 404", resp.StatusCode)
	}
	a, b := telemetry.NewRegistry(), telemetry.NewRegistry()
	svc.SetMetrics(a)
	rank()
	if resp, _ := get(t, ts.URL+"/metrics", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics after SetMetrics = %d, want 200", resp.StatusCode)
	}
	if got := a.Counter("service_select_errors_total").Value(); requests(a) != 2 || got != 1 {
		t.Errorf("registry a: %d requests, %d select errors; want 2 and 1", requests(a), got)
	}
	svc.SetMetrics(b)
	rank()
	svc.SetMetrics(nil)
	rank()
	if resp, _ := get(t, ts.URL+"/metrics", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics after SetMetrics(nil) = %d, want 404", resp.StatusCode)
	}
	if requests(a) != 2 || requests(b) != 1 {
		t.Errorf("requests a=%d b=%d, want 2 and 1", requests(a), requests(b))
	}

	// Swapping under concurrent requests: every request lands in at most
	// one registry (the race detector checks the swap itself).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		//lint:ignore baregoroutine bounded test fan-out joined via wg below
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if resp, err := http.Get(ts.URL + "/rank?q=data"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		svc.SetMetrics([]*telemetry.Registry{a, b, nil}[i%3])
	}
	wg.Wait()
	if got := requests(a) + requests(b) - 3; got > 40 {
		t.Errorf("%d requests recorded, more than the 40 sent", got)
	}
}

func TestHTTPErrorClassCounters(t *testing.T) {
	ts, svc, _ := metricsFixture(t)

	// 404: unknown database; 400: rank without a query.
	if resp, _ := get(t, ts.URL+"/databases/nope/summary", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown summary = %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/rank", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rank = %d", resp.StatusCode)
	}
	// 502: sampling a database whose server is gone.
	if err := svc.Register("gone", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, ts.URL+"/databases/gone/sample", SampleOptions{Docs: 5}, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("sample of dead db = %d, want 502", resp.StatusCode)
	}

	snap := svc.Metrics().Snapshot()
	if got := snap.Counters["http_4xx_total"]; got != 2 {
		t.Errorf("http_4xx_total = %d, want 2", got)
	}
	if got := snap.Counters["http_5xx_total"]; got != 1 {
		t.Errorf("http_5xx_total = %d, want 1", got)
	}
	if got := snap.Counters[`http_responses_total{class="4xx"}`]; got != 2 {
		t.Errorf(`http_responses_total{class="4xx"} = %d, want 2`, got)
	}
	if got := snap.Counters[`http_responses_total{class="5xx"}`]; got != 1 {
		t.Errorf(`http_responses_total{class="5xx"} = %d, want 1`, got)
	}
	if got := snap.Counters["service_sample_errors_total"]; got != 1 {
		t.Errorf("service_sample_errors_total = %d, want 1", got)
	}
}

func TestHTTPTraceIDAssignedAndEchoed(t *testing.T) {
	ts, _, _ := metricsFixture(t)
	resp, _ := get(t, ts.URL+"/healthz", nil)
	if id := resp.Header.Get("X-Trace-Id"); !strings.HasPrefix(id, "req-") {
		t.Errorf("assigned trace ID = %q, want req-NNNNNN", id)
	}
	resp, _ = get(t, ts.URL+"/healthz", http.Header{"X-Trace-Id": {"caller-7"}})
	if id := resp.Header.Get("X-Trace-Id"); id != "caller-7" {
		t.Errorf("incoming trace ID not honored: %q", id)
	}
}
