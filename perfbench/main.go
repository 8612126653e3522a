// Command perfbench is the repository's benchmark. It builds a selection
// deployment in its own process from the public constructors, drives it
// with closed-loop clients for a fixed time, checks every answer against
// a reference, and prints its metrics. See README.md in this directory for
// the workloads and the metric-to-layer map.
//
// Usage (from the repository root):
//
//	go run ./perfbench --workload point --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and
// the span file and layer table are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees that BENCHMARK.json
// gates; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"cpu_us_per_query", "us"},
	{"ok_ratio", "ratio"},
}

// textOnly are end-to-end figures printed with the untraced run's text
// but left out of the JSON result: qps spreads beyond any bound
// BENCHMARK.json may set, and sample_docs_per_s exists on refresh only
// (see README.md).
var textOnly = []metricDef{
	{"qps", "1/s"},
	{"sample_docs_per_s", "1/s"},
}

// perLayer are the traced run's metrics, the ones BENCHMARK.json lists.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"input.hot_share", "ratio"},
	{"input.distinct_queries", "count"},
	{"input.lru_capacity", "count"},
	{"httpapi.self_us", "us"},
	{"service.rank_us", "us"},
	{"analysis.tokenize_us", "us"},
	{"selection.rank_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.coalesced", "count"},
	{"sample_docs_per_s", "1/s"},
	{"service.sample_ms", "ms"},
	{"core.queries_per_sample", "count"},
	{"core.docs_per_sample", "count"},
	{"index.search_us", "us"},
	{"index.fetch_us", "us"},
	{"netsearch.probe_us", "us"},
	{"core.self_ms", "ms"},
	{"langmodel.normalize_ms", "ms"},
	{"store.put_ms", "ms"},
	{"selection.compile_ms", "ms"},
	{"selection.patch_ms", "ms"},
	{"service.first_rank_after_sample_us", "us"},
	{"service.snapshot_compiles_full", "count"},
	{"service.snapshot_compiles_incremental", "count"},
	{"runtime.alloc_bytes_per_query", "B"},
	{"runtime.gc_cycles_per_kquery", "count"},
	{"runtime.rss_peak_mb", "MB"},
	{"client.qps", "1/s"},
	{"client.p90_us", "us"},
	{"client.p99_us", "us"},
	{"client.samples", "count"},
	{"trace.overhead_pct", "%"},
	{"budget.residual_us", "us"},
}

// fanoutLayers are the scatter path's per-layer metrics. fanout is not
// one of BENCHMARK.json's workloads (see README.md), so these are printed
// with its traced run's text and layer table but not in the JSON result.
var fanoutLayers = []metricDef{
	{"input.batch_dup_share", "ratio"},
	{"input.largest_shard_share", "ratio"},
	{"cluster.rank_batch_us", "us"},
	{"cluster.fanout_self_us", "us"},
	{"netsearch.rank_batch_us", "us"},
	{"service.rank_batch_us", "us"},
	{"netsearch.wire_us", "us"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	tmp      string // scratch directory for stores, removed at exit
	out      string // where a traced run writes its span file
	setups   int    // set-ups timed for setup_s
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	checks            []string // failed reference checks, for the log
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the JSON
	spans             []span   // a traced run's spans
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail books n failed operations with a reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.checks) < 10 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"point":   runPoint,
	"fanout":  runFanout,
	"refresh": runRefresh,
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: point, fanout or refresh")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the traced run's span file and scratch stores")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload point|fanout|refresh, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.setups = 5
	if cfg.trace {
		cfg.setups = 1
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(cfg.out, "tmp-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.tmp = tmp
	res, err := run(cfg)
	if rmErr := os.RemoveAll(tmp); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricValue is one metric as reported.
type metricValue struct {
	name, unit string
	value      float64
}

// report prints the notes, one line per metric, and the JSON result.
func report(cfg config, res *result) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, runtime.GOMAXPROCS(0))
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, c := range res.checks {
		fmt.Println("check failed:", c)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if !cfg.trace {
		res.set("ok_ratio", 1-float64(res.failed)/float64(max(res.attempted, 1)))
	}
	var values []metricValue
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		shown := fmt.Sprintf("%.4f", v)
		if !ok {
			shown = "n/a (layer not exercised; reported as 0)"
		}
		fmt.Printf("  %-40s %s %s\n", d.name, shown, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		values = append(values, metricValue{d.name, d.unit, v})
	}
	extra := textOnly
	if cfg.trace {
		extra = nil
		if cfg.workload == "fanout" {
			extra = fanoutLayers
		}
	}
	for _, d := range extra {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Printf("  %-40s %.4f %s (text only)\n", d.name, v, d.unit)
			values = append(values, metricValue{d.name, d.unit, v})
		}
	}
	fmt.Printf("  %-40s %.6f (%d failed of %d attempted)\n", "fail_ratio",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	if cfg.trace {
		if err := writeTrace(cfg.out, cfg.workload, cfg.seed, res.spans, values); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
