package main

import (
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/selection"
	"repro/internal/telemetry"
)

// clients is the closed-loop client count: one per CPU of the 2-CPU
// machines the benchmark is tuned on, so clients and servers share the
// CPUs without a queue of runnable clients.
const clients = 2

// timeSetups builds a deployment n times and returns the last one with
// every set-up's wall time in seconds; the earlier ones are torn down.
func timeSetups[D any](n int, setup func() (D, error), teardown func(D)) (D, []float64, error) {
	var (
		d     D
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(d)
		}
		t0 := time.Now()
		var err error
		if d, err = setup(); err != nil {
			return d, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

// setE2E sets qps, p50_us and cpu_us_per_query from a closed-loop window
// and notes how each was formed.
func setE2E(res *result, lr *loopResult, what string) {
	qps, cpu := lr.sliceRates()
	lat := lr.latenciesUS()
	res.set("qps", median(qps))
	res.note("e2e: qps slices p10 %.0f p25 %.0f p50 %.0f p75 %.0f p90 %.0f", quantile(qps, 0.1), quantile(qps, 0.25), quantile(qps, 0.5), quantile(qps, 0.75), quantile(qps, 0.9))
	res.set("p50_us", quantile(lat, 0.5))
	res.set("cpu_us_per_query", median(cpu))
	res.note("e2e: qps and cpu_us_per_query are medians over %d slices of the %.0fs window; p50_us is over %d %s; the process used %.2f CPUs",
		len(qps), lr.window.Seconds(), len(lat), what, lr.cpuShare())
}

// setSetup sets setup_s to the median of the set-up times.
func setSetup(res *result, times []float64) {
	res.set("setup_s", median(append([]float64(nil), times...)))
	res.note("e2e: setup_s is the median of %d set-ups: %v", len(times), times)
}

// runtimeProbe measures the Go runtime around an untraced window.
type runtimeProbe struct{ before runtime.MemStats }

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

// finish sets the runtime.* and client.* per-layer metrics.
func (p *runtimeProbe) finish(res *result, lr *loopResult) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	q := float64(max(lr.queries(), 1))
	res.set("runtime.alloc_bytes_per_query", float64(after.TotalAlloc-p.before.TotalAlloc)/q)
	res.set("runtime.gc_cycles_per_kquery", float64(after.NumGC-p.before.NumGC)/q*1000)
	res.set("runtime.rss_peak_mb", float64(peakRSS())/(1<<20))
	qps, _ := lr.sliceRates()
	res.set("client.qps", median(qps))
	lat := lr.latenciesUS()
	res.set("client.p90_us", quantile(lat, 0.9))
	res.set("client.p99_us", quantile(lat, 0.99))
	res.set("client.samples", float64(len(lat)))
}

// scrapeCounters reads a deployment's /metrics in its JSON form.
func scrapeCounters(h *httpClient) (map[string]int64, error) {
	req, err := http.NewRequest(http.MethodGet, h.base+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	if err := h.do(req); err != nil {
		return nil, err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(h.body.Bytes(), &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// counterDelta is after[name] − before[name].
func counterDelta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// overheadPct is how much slower the traced client's median is than the
// untraced one, in percent.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// firstErr keeps the first error each client saw, for the log.
type firstErr []string

func (f firstErr) set(c int, err error) {
	if f[c] == "" {
		f[c] = err.Error()
	}
}

func (f firstErr) report(res *result) {
	for c, e := range f {
		if e != "" {
			res.note("client %d first error: %s", c, e)
		}
	}
}

// timeCompile sets selection.compile_ms to the median of five
// selection.Compile calls over models and returns the compiled set.
func timeCompile(res *result, models []*langmodel.Model) *selection.Compiled {
	times := make([]float64, 5)
	var c *selection.Compiled
	for i := range times {
		t0 := time.Now()
		c = selection.Compile(models)
		times[i] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	res.set("selection.compile_ms", median(times))
	return c
}

// rankScratch is one client's working memory for the direct analyzer and
// compiled-rank calls of a traced run.
type rankScratch struct {
	toks   []string
	ids    []int32
	scores []float64
	ranked []selection.Ranked
}

// tokenize runs the analyzer on q into the scratch tokens.
func (s *rankScratch) tokenize(an analysis.Analyzer, q string) {
	s.toks = an.AppendTokens(s.toks[:0], q)
}

// rank scores the scratch tokens with alg against c.
func (s *rankScratch) rank(c *selection.Compiled, alg selection.Algorithm) {
	s.ids = c.AppendIDs(s.ids[:0], s.toks)
	if cap(s.scores) < c.NumDBs() {
		s.scores = make([]float64, c.NumDBs())
	}
	s.ranked, _ = c.RankInto(alg, s.ids, s.scores[:c.NumDBs()], s.ranked[:0])
}
