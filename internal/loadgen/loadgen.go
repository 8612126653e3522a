// Package loadgen is the reproducible load-generation harness for the
// selection-serving surface (DESIGN.md §14): it replays a seeded Zipf
// query workload against a running selectd (single process or cluster
// front) over real HTTP, in closed- or open-loop mode, and reports
// client-side QPS and latency quantiles in a JSON report the benchdiff
// gate can diff run-over-run. The quantiles come from telemetry.Histogram,
// the estimator the servers' own latency metrics use, so each is within
// one bucket width (10%) of the exact sample value.
//
// The workload is a pure function of (Seed, Requests, Batch, Terms,
// Vocab): request g's queries are drawn from randx fork g+1, so two runs
// with the same config issue byte-identical query streams regardless of
// worker count or scheduling — the property that makes a load report
// comparable across commits.
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/telemetry"
)

// Config parameterizes one load run.
type Config struct {
	// Target is the base URL of the serving surface under test, e.g.
	// "http://127.0.0.1:8080".
	Target string `json:"target"`
	// Mode is "closed" (each worker issues its next request as soon as
	// the previous one completes — the default) or "open" (requests are
	// launched on a fixed schedule of Rate per second, backpressure or
	// not, which is what exposes queueing collapse).
	Mode string `json:"mode,omitempty"`
	// Workers is the closed-loop concurrency (and the open-loop launcher
	// pool). Default 4.
	Workers int `json:"workers,omitempty"`
	// Requests is the number of timed HTTP requests. Default 64.
	Requests int `json:"requests"`
	// Rate is the open-loop launch schedule in requests/second (ignored
	// in closed mode). Default 100.
	Rate float64 `json:"rate,omitempty"`
	// Batch > 1 sends each request as POST /rank/batch carrying Batch
	// queries; Batch <= 1 sends single GET /rank requests.
	Batch int `json:"batch,omitempty"`
	// Stream sends each batch as POST /rank/batch?stream=1 and reads the
	// NDJSON frames, recording time-to-first-result per request. Requires
	// Batch > 1.
	Stream bool `json:"stream,omitempty"`
	// DupRate in (0,1] makes each query a draw from a 16-query hot pool
	// with this probability instead of a fresh Zipf draw — the workload
	// that exercises within-batch and cross-caller coalescing. 0 (the
	// default) leaves the classic workload byte-identical to before the
	// knob existed. The pool is seeded from fork 0 of the workload stream,
	// which the per-request forks (g+1) never touch, so a dup-rate run is
	// as replayable as any other.
	DupRate float64 `json:"dup_rate,omitempty"`
	// Alg and K are passed through to the rank API.
	Alg string `json:"alg,omitempty"`
	K   int    `json:"k,omitempty"`
	// Terms is the number of query terms per query. Default 3.
	Terms int `json:"terms,omitempty"`
	// ZipfS is the Zipf skew (> 1; default 1.2): queries draw their terms
	// from Vocab with rank-frequency skew, like real query logs.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Seed fixes the workload. Default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Vocab is the term universe queries draw from.
	Vocab []string `json:"-"`
	// Label names the run in the report's metric keys
	// (loadgen/<label>/qps). Default "run".
	Label string `json:"label,omitempty"`
	// Timeout bounds each HTTP request. Default 30s.
	Timeout time.Duration `json:"-"`
	// OnProgress, when set, is called once per completed request with the
	// number of requests finished so far — the hook the chaos harness
	// uses to inject a fault mid-run.
	OnProgress func(done int) `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = "closed"
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Terms <= 0 {
		c.Terms = 3
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Alg == "" {
		c.Alg = "cori"
	}
	if c.Label == "" {
		c.Label = "run"
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Metric is one named scalar in a report, in the shape the benchdiff
// gate ingests: direction-aware, so a QPS drop and a p99 rise are both
// regressions.
type Metric struct {
	Value          float64 `json:"value"`
	Unit           string  `json:"unit,omitempty"`
	HigherIsBetter bool    `json:"higher_is_better,omitempty"`
}

// Report is one load run's outcome.
type Report struct {
	Label          string  `json:"label"`
	Config         Config  `json:"config"`
	Requests       int     `json:"requests"`
	Queries        int     `json:"queries"`
	Shed           int     `json:"shed,omitempty"`   // 429 responses
	Errors         int     `json:"errors,omitempty"` // transport + non-2xx (except 429)
	FirstError     string  `json:"first_error,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	QPS            float64 `json:"qps"`
	P50us          float64 `json:"p50_us"`
	P95us          float64 `json:"p95_us"`
	P99us          float64 `json:"p99_us"`
	// TTFR percentiles (time to first streamed result) are populated in
	// stream mode only; for a buffered batch first byte ≈ last byte, so the
	// whole-request latency above already is the TTFR.
	TTFRP50us float64 `json:"ttfr_p50_us,omitempty"`
	TTFRP95us float64 `json:"ttfr_p95_us,omitempty"`
	TTFRP99us float64 `json:"ttfr_p99_us,omitempty"`
	// CoalescedBatch/CoalescedFlight total the target's
	// rank_coalesced_total{scope=batch|flight} counters after the run
	// (whichever tier prefix the target exposes), 0 when the target has no
	// metrics endpoint.
	CoalescedBatch  int64 `json:"coalesced_batch,omitempty"`
	CoalescedFlight int64 `json:"coalesced_flight,omitempty"`
	// Metrics carries the headline numbers keyed for the benchdiff gate:
	// loadgen/<label>/qps and loadgen/<label>/p99_us.
	Metrics map[string]Metric `json:"metrics"`
	// Server is the target's /metrics?format=json snapshot taken after
	// the run (null when the target does not expose one).
	Server json.RawMessage `json:"server,omitempty"`
}

// hotPoolSize is the size of the shared hot query pool DupRate draws
// from: small enough that duplicates collide constantly, large enough
// that the pool is not one query.
const hotPoolSize = 16

// queriesFor builds request g's queries — a pure function of the config,
// so the workload replays identically run over run. With DupRate set,
// each position is (with that probability) a draw from the shared hot
// pool instead — duplicates then appear both within a batch and across
// concurrent requests, which is what the coalescing tiers feed on.
func (c Config) queriesFor(g int) []string {
	src := randx.New(c.Seed).Fork(uint64(g) + 1)
	zipf := randx.NewZipf(src, c.ZipfS, 1, uint64(len(c.Vocab)-1))
	var hot []string
	if c.DupRate > 0 {
		hot = c.hotQueries()
	}
	n := c.Batch
	if n <= 1 {
		n = 1
	}
	queries := make([]string, n)
	var sb strings.Builder
	for i := range queries {
		if hot != nil && src.Float64() < c.DupRate {
			queries[i] = hot[src.Intn(len(hot))]
			continue
		}
		sb.Reset()
		for t := 0; t < c.Terms; t++ {
			if t > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(c.Vocab[zipf.Uint64()])
		}
		queries[i] = sb.String()
	}
	return queries
}

// hotQueries builds the DupRate hot pool — a pure function of the config,
// drawn from fork 0, which the per-request streams (forks g+1) never use.
func (c Config) hotQueries() []string {
	src := randx.New(c.Seed).Fork(0)
	zipf := randx.NewZipf(src, c.ZipfS, 1, uint64(len(c.Vocab)-1))
	pool := make([]string, hotPoolSize)
	var sb strings.Builder
	for i := range pool {
		sb.Reset()
		for t := 0; t < c.Terms; t++ {
			if t > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(c.Vocab[zipf.Uint64()])
		}
		pool[i] = sb.String()
	}
	return pool
}

// Run executes the workload and returns its report. A shed response
// (429) is the admission contract working as designed and is counted
// separately from Errors; any other non-2xx or transport failure counts
// as an error and fails the run's caller (cmd/loadgen exits nonzero).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: no target URL")
	}
	if len(cfg.Vocab) == 0 {
		return nil, fmt.Errorf("loadgen: empty vocabulary")
	}
	if cfg.Stream && cfg.Batch <= 1 {
		return nil, fmt.Errorf("loadgen: stream mode requires batch > 1")
	}
	client := &http.Client{Timeout: cfg.Timeout}

	// One untimed warmup request dials connections and compiles the
	// target's snapshots, so the timed window prices steady state.
	if _, _, err := issue(client, cfg, cfg.queriesFor(0)); err != nil {
		return nil, fmt.Errorf("loadgen: warmup: %w", err)
	}

	latencies := make([]float64, cfg.Requests) // seconds; index = request
	ttfrs := make([]float64, cfg.Requests)     // seconds; stream mode only
	status := make([]int, cfg.Requests)
	errs := make([]error, cfg.Requests)
	var done atomic.Int64

	// Requests are distributed to workers round-robin by index; each
	// index's outcome lands in its own slot, so no locking. parallel.Map
	// bounds the fan-out (no bare goroutines) and propagates panics.
	workers := make([]int, cfg.Workers)
	for i := range workers {
		workers[i] = i
	}
	start := time.Now()
	_, runErr := parallel.Map(cfg.Workers, workers, func(_ int, w int) (struct{}, error) {
		for g := w; g < cfg.Requests; g += cfg.Workers {
			if cfg.Mode == "open" {
				// Launch request g at its scheduled instant, late or not —
				// the open-loop property that shows queueing collapse.
				at := start.Add(time.Duration(float64(g) / cfg.Rate * float64(time.Second)))
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
			}
			t0 := time.Now()
			code, ttfr, err := issue(client, cfg, cfg.queriesFor(g))
			latencies[g] = time.Since(t0).Seconds()
			ttfrs[g] = ttfr
			status[g] = code
			errs[g] = err
			if cfg.OnProgress != nil {
				cfg.OnProgress(int(done.Add(1)))
			} else {
				done.Add(1)
			}
		}
		return struct{}{}, nil
	})
	elapsed := time.Since(start).Seconds()
	if runErr != nil {
		return nil, runErr
	}

	rep := &Report{
		Label:          cfg.Label,
		Config:         cfg,
		Requests:       cfg.Requests,
		ElapsedSeconds: elapsed,
	}
	perReq := cfg.Batch
	if perReq <= 1 {
		perReq = 1
	}
	var lat, ttfr telemetry.Histogram
	for g := 0; g < cfg.Requests; g++ {
		switch {
		case errs[g] != nil:
			rep.Errors++
			if rep.FirstError == "" {
				rep.FirstError = errs[g].Error()
			}
		case status[g] == http.StatusTooManyRequests:
			rep.Shed++
		case status[g] >= 300:
			rep.Errors++
			if rep.FirstError == "" {
				rep.FirstError = fmt.Sprintf("request %d: HTTP %d", g, status[g])
			}
		default:
			rep.Queries += perReq
			lat.Observe(latencies[g])
			ttfr.Observe(ttfrs[g])
		}
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Queries) / elapsed
	}
	rep.P50us = lat.Quantile(0.50) * 1e6
	rep.P95us = lat.Quantile(0.95) * 1e6
	rep.P99us = lat.Quantile(0.99) * 1e6
	rep.Metrics = map[string]Metric{
		"loadgen/" + cfg.Label + "/qps":    {Value: rep.QPS, Unit: "qps", HigherIsBetter: true},
		"loadgen/" + cfg.Label + "/p99_us": {Value: rep.P99us, Unit: "us"},
	}
	if cfg.Stream {
		rep.TTFRP50us = ttfr.Quantile(0.50) * 1e6
		rep.TTFRP95us = ttfr.Quantile(0.95) * 1e6
		rep.TTFRP99us = ttfr.Quantile(0.99) * 1e6
		rep.Metrics["loadgen/"+cfg.Label+"/ttfr_us"] = Metric{Value: rep.TTFRP99us, Unit: "us"}
	}
	rep.Server = scrape(client, cfg.Target)
	if rep.Server != nil {
		var snap telemetry.Snapshot
		if json.Unmarshal(rep.Server, &snap) == nil {
			rep.CoalescedBatch = snap.CounterSum(`rank_coalesced_total{scope="batch"}`)
			rep.CoalescedFlight = snap.CounterSum(`rank_coalesced_total{scope="flight"}`)
		}
	}
	return rep, nil
}

// issue sends one request — a single GET /rank, a POST /rank/batch, or a
// streamed batch — and fully drains the response so connections are
// reused. The status code is the outcome; only transport failures (and,
// in stream mode, protocol violations) are errors here. The second return
// is the time to first streamed result in seconds, 0 outside stream mode.
func issue(client *http.Client, cfg Config, queries []string) (int, float64, error) {
	if cfg.Stream && cfg.Batch > 1 {
		return issueStream(client, cfg, queries)
	}
	var resp *http.Response
	var err error
	if cfg.Batch > 1 {
		payload, merr := json.Marshal(map[string]any{
			"queries": queries, "alg": cfg.Alg, "k": cfg.K,
		})
		if merr != nil {
			return 0, 0, merr
		}
		resp, err = client.Post(cfg.Target+"/rank/batch", "application/json", bytes.NewReader(payload))
	} else {
		resp, err = client.Get(cfg.Target + "/rank?q=" + url.QueryEscape(queries[0]) +
			"&alg=" + url.QueryEscape(cfg.Alg) + "&k=" + fmt.Sprint(cfg.K))
	}
	if err != nil {
		return 0, 0, err
	}
	//lint:ignore errsink body close after a full drain is best effort; a broken connection fails the next request loudly
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, 0, nil
}

// issueStream sends one POST /rank/batch?stream=1 and validates the NDJSON
// frame protocol as it reads: the clock for TTFR starts at the POST and
// stops at the first frame; the stream must end with a done frame whose
// results count matches the item frames seen, which must match the batch.
func issueStream(client *http.Client, cfg Config, queries []string) (int, float64, error) {
	payload, err := json.Marshal(map[string]any{
		"queries": queries, "alg": cfg.Alg, "k": cfg.K,
	})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(cfg.Target+"/rank/batch?stream=1", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, 0, err
	}
	//lint:ignore errsink body close after a full drain is best effort; a broken connection fails the next request loudly
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Pre-stream refusal (shed, bad request): a plain JSON body,
		// drained best-effort so the connection can be reused.
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ttfr float64
	items, doneSeen := 0, false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if ttfr == 0 {
			ttfr = time.Since(t0).Seconds()
		}
		var frame struct {
			Done    bool `json:"done"`
			Results int  `json:"results"`
		}
		if err := json.Unmarshal(line, &frame); err != nil {
			return resp.StatusCode, 0, fmt.Errorf("loadgen: bad stream frame %q: %w", line, err)
		}
		switch {
		case frame.Done:
			doneSeen = true
			if frame.Results != items {
				return resp.StatusCode, 0, fmt.Errorf(
					"loadgen: stream done frame reports %d results, saw %d items", frame.Results, items)
			}
		case doneSeen:
			return resp.StatusCode, 0, fmt.Errorf("loadgen: stream frame after done frame")
		default:
			items++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if !doneSeen {
		return resp.StatusCode, 0, fmt.Errorf("loadgen: stream ended without done frame")
	}
	if items != len(queries) {
		return resp.StatusCode, 0, fmt.Errorf("loadgen: stream delivered %d items for %d queries", items, len(queries))
	}
	return resp.StatusCode, ttfr, nil
}

// scrape grabs the target's JSON metrics snapshot, best effort.
func scrape(client *http.Client, target string) json.RawMessage {
	resp, err := client.Get(target + "/metrics?format=json")
	if err != nil {
		return nil
	}
	//lint:ignore errsink the snapshot is best effort; a close error cannot change it
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil || !json.Valid(raw) {
		return nil
	}
	return raw
}
