package cluster

// Tests for the batched scatter-gather path: bit-identical fusion against
// the single-query path, the wire fallback for shards that only rank one
// query at a time, per-item error propagation, cold-federation handling,
// and admission control on the front's serving surface.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// sampledCluster builds a front over nShards real shards, registers a
// small federation by ring placement, and samples every database — the
// full wire stack with learned models.
func sampledCluster(t *testing.T, nShards int) (*Front, []*experiments.FederationDB) {
	t.Helper()
	dbs, err := experiments.Federation(4, 150, 31)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*service.Service, nShards)
	var addrs [][]string
	for i := range shards {
		shards[i] = service.New(analysis.Database(), nil)
		srv, err := ServeShard(shards[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, []string{srv.Addr()})
	}
	f := newTestFront(t, addrs, telemetry.NewRegistry())
	sample := service.SampleOptions{Docs: 40, Seed: 7}
	for _, db := range dbs {
		svc := shards[f.Ring().Owner(db.Name)]
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Sample(db.Name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return f, dbs
}

// TestFrontBatchMatchesSequential: a query ranked inside a batch must
// fuse to the bit the same as the query ranked alone — same partials,
// same uniform weights, same tie-break.
func TestFrontBatchMatchesSequential(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	queries := []string{
		terms[0] + " " + terms[1],
		terms[2],
		terms[0] + " " + terms[1], // repeats must not perturb merge-scratch reuse
		terms[3] + " " + terms[0],
	}
	for _, alg := range []string{"cori", "gloss-sum"} {
		batch, err := f.RankBatch(queries, alg, 3, "")
		if err != nil {
			t.Fatalf("RankBatch(%s): %v", alg, err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("got %d items for %d queries", len(batch), len(queries))
		}
		for i, q := range queries {
			want, err := f.Rank(q, alg, 3, "")
			if err != nil {
				t.Fatalf("Rank(%q, %s): %v", q, alg, err)
			}
			got := batch[i]
			if got.Error != "" {
				t.Fatalf("item %d unexpected error %q", i, got.Error)
			}
			if len(got.Ranked) != len(want) {
				t.Fatalf("item %d: %d rows vs %d sequential", i, len(got.Ranked), len(want))
			}
			for j := range want {
				if got.Ranked[j].Name != want[j].Name ||
					math.Float64bits(got.Ranked[j].Score) != math.Float64bits(want[j].Score) {
					t.Fatalf("item %d row %d: batch %+v != sequential %+v", i, j, got.Ranked[j], want[j])
				}
			}
		}
	}
}

// TestFrontBatchLegacyShardFallback: over scripted stub shards, every
// item of a batch fuses to exactly what the single-query path returns.
func TestFrontBatchLegacyShardFallback(t *testing.T) {
	s0 := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-c", Score: 0.2}}}
	s1 := &stubShard{partial: []netsearch.RankedDB{{Name: "db-b", Score: 0.5}}}
	f := newTestFront(t, [][]string{{serveStub(t, s0)}, {serveStub(t, s1)}}, telemetry.NewRegistry())

	batch, err := f.RankBatch([]string{"apple pie", "plum"}, "cori", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		want, err := f.Rank("q", "cori", 2, "") // stubs ignore the query text
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Error != "" || len(batch[i].Ranked) != len(want) {
			t.Fatalf("item %d = %+v, want %d rows", i, batch[i], len(want))
		}
		for j := range want {
			if batch[i].Ranked[j] != want[j] {
				t.Errorf("item %d row %d = %+v, want %+v", i, j, batch[i].Ranked[j], want[j])
			}
		}
	}
}

func TestFrontBatchPerItemErrors(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)
	batch, err := f.RankBatch([]string{terms[0], "the and of"}, "cori", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Error != "" || len(batch[0].Ranked) == 0 {
		t.Errorf("item 0 should rank: %+v", batch[0])
	}
	if batch[1].Error == "" || batch[1].Ranked != nil {
		t.Errorf("stopword-only query should fail per-item: %+v", batch[1])
	}
}

func TestFrontBatchColdFederationAndBadAlg(t *testing.T) {
	s0, s1 := &stubShard{}, &stubShard{}
	f := newTestFront(t, [][]string{{serveStub(t, s0)}, {serveStub(t, s1)}}, telemetry.NewRegistry())
	if _, err := f.RankBatch([]string{"a", "b"}, "cori", 5, ""); !errors.Is(err, service.ErrNoModels) {
		t.Errorf("cold-federation batch error = %v, want service.ErrNoModels", err)
	}

	// A real shard refuses a bogus algorithm with a marked EINVAL, which
	// must classify back to ErrInvalid without burning failovers.
	fr, _ := sampledCluster(t, 1)
	if _, err := fr.RankBatch([]string{"data"}, "bogus-alg", 0, ""); !errors.Is(err, service.ErrInvalid) {
		t.Errorf("bad-algorithm batch error = %v, want service.ErrInvalid", err)
	}
	if h := fr.Health(); h[0].ConsecutiveFailures != 0 {
		t.Errorf("client mistake booked as replica failure: %+v", h[0])
	}
}

func TestFrontHTTPRankBatch(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)

	var out httpapi.BatchResponse
	resp := postJSON(t, ts.URL+"/rank/batch",
		httpapi.BatchRequest{Queries: []string{terms[0] + " " + terms[1], "the and of"}, Alg: "cori", K: 3}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != 2 || len(out.Results[0].Ranked) == 0 || out.Results[1].Error == "" {
		t.Fatalf("batch response: %+v", out)
	}

	if resp := postJSON(t, ts.URL+"/rank/batch", httpapi.BatchRequest{Alg: "cori"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/rank/batch",
		httpapi.BatchRequest{Queries: make([]string, httpapi.MaxBatchQueries+1), Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400", resp.StatusCode)
	}
	get, err := http.Get(ts.URL + "/rank/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rank/batch: status %d, want 405", get.StatusCode)
	}
}

// TestFrontAdmissionOverload: the front sheds deterministically at its
// in-flight cap with 429 + Retry-After, and serves normally under it.
func TestFrontAdmissionOverload(t *testing.T) {
	s := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.9}}}
	reg := telemetry.NewRegistry()
	f, err := NewFront([][]string{{serveStub(t, s)}}, Options{
		Metrics:   reg,
		Admission: admission.Config{MaxInFlight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	shedCap := reg.Counter(`cluster_shed_total{reason="inflight"}`)

	ticket, ok := f.gate.Admit()
	if !ok {
		t.Fatal("idle gate refused the first admit")
	}
	resp, err := http.Get(ts.URL + "/rank?q=apple&alg=cori")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated rank: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp = postJSON(t, ts.URL+"/rank/batch",
		httpapi.BatchRequest{Queries: []string{"apple"}, Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", resp.StatusCode)
	}
	// Retry-After parity: the batch shed speaks the same overload contract
	// as the single path.
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 without a Retry-After header")
	}
	// A streamed batch sheds identically — the refusal happens before any
	// frame, so the client still gets a plain 429.
	resp = postJSON(t, ts.URL+"/rank/batch?stream=1",
		httpapi.BatchRequest{Queries: []string{"apple"}, Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated streamed batch: status %d, Retry-After %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if shedCap.Value() != 3 {
		t.Fatalf("shed counter = %d, want 3", shedCap.Value())
	}

	ticket.Release()
	resp, err = http.Get(ts.URL + "/rank?q=apple&alg=cori")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release rank: status %d", resp.StatusCode)
	}
	if shedCap.Value() != 3 {
		t.Errorf("request under the limit shed: counter = %d, want 3", shedCap.Value())
	}
}

func TestFrontAdmissionDegradesK(t *testing.T) {
	s := &stubShard{partial: []netsearch.RankedDB{
		{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.5}, {Name: "db-c", Score: 0.2},
	}}
	f, err := NewFront([][]string{{serveStub(t, s)}}, Options{
		Metrics:   telemetry.NewRegistry(),
		Admission: admission.Config{MaxInFlight: 8, DegradeAt: 1, DegradeK: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	var ranked []netsearch.RankedDB
	resp := getJSON(t, ts.URL+"/rank?q=apple&alg=cori&k=3", &ranked)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded rank: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Degraded-K") != "1" || len(ranked) != 1 {
		t.Errorf("degraded rank: X-Degraded-K=%q rows=%d, want 1 and 1",
			resp.Header.Get("X-Degraded-K"), len(ranked))
	}
	var batch httpapi.BatchResponse
	resp = postJSON(t, ts.URL+"/rank/batch",
		httpapi.BatchRequest{Queries: []string{"apple"}, Alg: "cori", K: 3}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded batch: status %d", resp.StatusCode)
	}
	if !batch.Degraded || len(batch.Results[0].Ranked) != 1 {
		t.Errorf("degraded batch: %+v", batch)
	}
}

// TestFrontEmptyBatchInvalid: an empty batch is the caller's mistake on
// every front entry point, refused before any scatter.
func TestFrontEmptyBatchInvalid(t *testing.T) {
	s := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.9}}}
	f := newTestFront(t, [][]string{{serveStub(t, s)}}, telemetry.NewRegistry())
	if _, err := f.RankBatch(nil, "cori", 2, ""); !errors.Is(err, service.ErrInvalid) {
		t.Errorf("empty RankBatch error = %v, want ErrInvalid", err)
	}
	err := f.RankBatchStream(nil, "cori", 2, "", func(int, netsearch.RankedBatch) error { return nil })
	if !errors.Is(err, service.ErrInvalid) {
		t.Errorf("empty RankBatchStream error = %v, want ErrInvalid", err)
	}
	if s.calls() != 0 {
		t.Errorf("empty batch scattered %d times, want 0", s.calls())
	}
}
