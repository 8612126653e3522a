package service_test

// The cross-tier HTTP contract: a single-process service and a cluster
// front over a shard of an equivalent service must answer the same
// requests with the same status, headers and error body.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// tierPair is one deployment per tier over the same federation.
type tierPair struct {
	direct, shard     *service.Service
	svcURL, frontURL  string
	directR, shardReg *telemetry.Registry
}

// newTierPair builds a service and a one-slot front whose shard serves an
// identical service; warm samples the same federation into both. Both
// tiers admit one request at a time.
func newTierPair(t *testing.T, warm bool) tierPair {
	t.Helper()
	cfg := admission.Config{MaxInFlight: 1}
	p := tierPair{
		direct:   service.New(analysis.Database(), nil),
		shard:    service.New(analysis.Database(), nil),
		directR:  telemetry.NewRegistry(),
		shardReg: telemetry.NewRegistry(),
	}
	p.direct.SetMetrics(p.directR)
	p.shard.SetMetrics(p.shardReg)
	p.direct.SetAdmission(cfg)
	if warm {
		dbs, err := experiments.Federation(3, 150, 31)
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range []*service.Service{p.direct, p.shard} {
			for _, db := range dbs {
				if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
					t.Fatal(err)
				}
				if _, err := svc.Sample(db.Name, service.SampleOptions{Docs: 40, Seed: 7}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	srv, err := cluster.ServeShard(p.shard, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	front, err := cluster.NewFront([][]string{{srv.Addr()}}, cluster.Options{
		Metrics:   telemetry.NewRegistry(),
		Admission: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	svcTS := httptest.NewServer(p.direct.Handler())
	t.Cleanup(svcTS.Close)
	frontTS := httptest.NewServer(front.Handler())
	t.Cleanup(frontTS.Close)
	p.svcURL, p.frontURL = svcTS.URL, frontTS.URL
	return p
}

// answer is everything the contract compares.
type answer struct {
	status                                    int
	contentType, retryAfter, degradedK, trace string
	body                                      string
}

func do(t *testing.T, method, url, body, trace string) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		degradedK:   resp.Header.Get("X-Degraded-K"),
		trace:       resp.Header.Get("X-Trace-Id"),
		body:        string(b),
	}
}

// batchOf renders a POST /rank/batch body.
func batchOf(queries ...string) string {
	var b bytes.Buffer
	b.WriteString(`{"alg":"cori","k":3,"queries":[`)
	for i, q := range queries {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", q)
	}
	b.WriteString("]}")
	return b.String()
}

func TestHTTPContractAcrossTiers(t *testing.T) {
	warm := newTierPair(t, true)
	cold := newTierPair(t, false)
	many := make([]string, 1025)
	for i := range many {
		many[i] = fmt.Sprintf("q%d", i)
	}
	oversized := `{"queries":["` + strings.Repeat("a", 1<<20) + `"]}`

	cases := []struct {
		name         string
		pair         tierPair
		method, path string
		body         string
		status       int
		errBody      string // the {"error":…} message; "" for a 200
		shed         bool   // hold each tier's one admission slot first
	}{
		{name: "wrong method", pair: warm, method: http.MethodPost, path: "/rank?q=data",
			status: http.StatusMethodNotAllowed, errBody: "GET only"},
		{name: "wrong batch method", pair: warm, method: http.MethodGet, path: "/rank/batch",
			status: http.StatusMethodNotAllowed, errBody: "POST only"},
		{name: "unknown algorithm", pair: warm, method: http.MethodGet, path: "/rank?q=data&alg=bogus",
			status: http.StatusBadRequest, errBody: `service: unknown algorithm "bogus": invalid argument`},
		{name: "no-term query", pair: warm, method: http.MethodGet, path: "/rank?q=the+and+of&alg=cori",
			status: http.StatusBadRequest, errBody: "service: query has no index terms: invalid argument"},
		{name: "per-item error", pair: warm, method: http.MethodPost, path: "/rank/batch",
			body: batchOf("finance market", "the and of"), status: http.StatusOK},
		{name: "empty batch", pair: warm, method: http.MethodPost, path: "/rank/batch",
			body: batchOf(), status: http.StatusBadRequest, errBody: "service: empty batch: invalid argument"},
		{name: "1025-query batch", pair: warm, method: http.MethodPost, path: "/rank/batch",
			body: batchOf(many...), status: http.StatusBadRequest,
			errBody: "batch of 1025 queries exceeds the 1024-query limit: invalid argument"},
		{name: "oversized body", pair: warm, method: http.MethodPost, path: "/rank/batch",
			body: oversized, status: http.StatusRequestEntityTooLarge,
			errBody: "request body exceeds the 1048576-byte limit"},
		{name: "oversized register", pair: warm, method: http.MethodPost, path: "/databases",
			body: oversized, status: http.StatusRequestEntityTooLarge,
			errBody: "request body exceeds the 1048576-byte limit"},
		{name: "shed", pair: warm, method: http.MethodGet, path: "/rank?q=data&alg=cori",
			status: http.StatusTooManyRequests, errBody: "service overloaded, retry later", shed: true},
		{name: "shed batch", pair: warm, method: http.MethodPost, path: "/rank/batch",
			body: batchOf("data"), status: http.StatusTooManyRequests,
			errBody: "service overloaded, retry later", shed: true},
		{name: "cold federation", pair: cold, method: http.MethodGet, path: "/rank?q=data&alg=cori",
			status: http.StatusServiceUnavailable, errBody: "service: no databases have learned models yet"},
		{name: "cold federation batch", pair: cold, method: http.MethodPost, path: "/rank/batch",
			body: batchOf("data", "market"), status: http.StatusServiceUnavailable,
			errBody: "service: no databases have learned models yet"},
	}
	ran := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			if tc.shed {
				defer holdSlots(t, tc.pair)()
			}
			trace := "contract-" + strings.ReplaceAll(tc.name, " ", "-")
			svc := do(t, tc.method, tc.pair.svcURL+tc.path, tc.body, trace)
			front := do(t, tc.method, tc.pair.frontURL+tc.path, tc.body, trace)
			if svc != front {
				t.Errorf("tiers disagree:\nservice %+v\nfront   %+v", svc, front)
			}
			if svc.status != tc.status || svc.trace != trace {
				t.Errorf("service answered %d trace %q, want %d trace %q", svc.status, svc.trace, tc.status, trace)
			}
			if svc.contentType != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", svc.contentType)
			}
			if tc.shed != (svc.retryAfter != "") {
				t.Errorf("Retry-After = %q on a shed=%v answer", svc.retryAfter, tc.shed)
			}
			if tc.errBody != "" {
				if want := fmt.Sprintf("{%q:%q}\n", "error", tc.errBody); svc.body != want {
					t.Errorf("body = %q, want %q", svc.body, want)
				}
			} else if !strings.Contains(svc.body, `"error":"service: query has no index terms: invalid argument"`) {
				t.Errorf("batch body %q lacks the per-item error", svc.body)
			}
		})
	}
	if ran == len(cases) {
		checkMetricNames(t, warm, cold)
	}
}

// checkMetricNames pins the metric names every tier exposes after the
// contract workload: perfbench scrapes service_select_cache_* and
// service_rank_coalesced_total{…}, and loadgen's CounterSum reads names
// too, so binding instruments ahead of use must not add or drop one.
// The service and front are scraped through their /metrics endpoints.
func checkMetricNames(t *testing.T, pairs ...tierPair) {
	t.Helper()
	var got strings.Builder
	for i, p := range pairs {
		fmt.Fprintf(&got, "# pair %d service\n", i)
		writeNames(&got, scrapeMetrics(t, p.svcURL))
		fmt.Fprintf(&got, "# pair %d shard\n", i)
		writeNames(&got, p.shardReg.Snapshot())
		fmt.Fprintf(&got, "# pair %d front\n", i)
		writeNames(&got, scrapeMetrics(t, p.frontURL))
	}
	want, err := os.ReadFile("testdata/contract_metric_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("exposed metric names changed:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

func scrapeMetrics(t *testing.T, url string) telemetry.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// writeNames lists a snapshot's metric names, sorted, one per line with
// its kind.
func writeNames(w io.Writer, snap telemetry.Snapshot) {
	var names []string
	for name := range snap.Counters {
		names = append(names, "counter "+name)
	}
	for name := range snap.Gauges {
		names = append(names, "gauge "+name)
	}
	for name := range snap.Histograms {
		names = append(names, "histogram "+name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(w, n)
	}
}

// holdSlots takes each tier's one admission slot with a /rank request that
// blocks on a held flight in the service that ranks it, and returns the
// release.
func holdSlots(t *testing.T, p tierPair) (release func()) {
	t.Helper()
	const query = "market"
	var releases []func()
	done := make(chan struct{}, 2)
	for _, h := range []struct {
		svc *service.Service
		reg *telemetry.Registry
		url string
	}{{p.direct, p.directR, p.svcURL}, {p.shard, p.shardReg, p.frontURL}} {
		releases = append(releases, h.svc.HoldFlight(t, query, "cori", 0))
		joined := h.reg.Counter(`service_rank_coalesced_total{scope="flight"}`)
		before := joined.Value()
		go func(url string) {
			defer func() { done <- struct{}{} }()
			resp, err := http.Get(url + "/rank?alg=cori&q=" + query)
			if err == nil {
				resp.Body.Close()
			}
		}(h.url)
		deadline := time.Now().Add(5 * time.Second)
		for joined.Value() == before {
			if time.Now().After(deadline) {
				t.Fatal("slot-holding request never reached the held flight")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return func() {
		for _, r := range releases {
			r()
		}
		<-done
		<-done
	}
}
