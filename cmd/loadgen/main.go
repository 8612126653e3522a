// Command loadgen replays a reproducible, seeded Zipf query workload
// against a selection-serving surface and writes a JSON report with
// client-side QPS and latency quantiles (bucketed, within 10% of exact) —
// the numbers the benchdiff gate diffs in CI (make load-smoke / load-gate).
//
// Point it at a running selectd (single process or cluster front):
//
//	loadgen -target http://127.0.0.1:8080 -requests 500 -workers 8
//
// or let it spawn a self-contained loopback deployment with synthetic
// warm models (what CI does — no external service, no sampling):
//
//	loadgen -spawn -spawn-shards 2 -requests 200 -batch 8 -report load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/loadgen"
)

func main() {
	var (
		target  = flag.String("target", "", "base URL of the serving surface (omit with -spawn)")
		spawn   = flag.Bool("spawn", false, "spawn a loopback deployment with synthetic warm models")
		shards  = flag.Int("spawn-shards", 0, "spawned topology: 0 = single process, N = N-shard cluster front")
		dbs     = flag.Int("spawn-dbs", 50, "spawned federation size")
		maxIn   = flag.Int("spawn-max-inflight", 0, "spawned admission: in-flight cap (0 = off)")
		mode    = flag.String("mode", "closed", `"closed" (next request when the last completes) or "open" (fixed -rate schedule)`)
		rate    = flag.Float64("rate", 100, "open-loop launch rate, requests/second")
		reqs    = flag.Int("requests", 200, "timed HTTP requests to issue")
		workers = flag.Int("workers", 4, "concurrent workers")
		batch   = flag.Int("batch", 0, ">1 sends POST /rank/batch with this many queries per request")
		stream  = flag.Bool("stream", false, "send batches as POST /rank/batch?stream=1 and record TTFR (requires -batch > 1)")
		dupRate = flag.Float64("dup-rate", 0, "probability in (0,1] each query repeats from a seeded hot pool (exercises coalescing)")
		alg     = flag.String("alg", "cori", "selection algorithm")
		k       = flag.Int("k", 10, "rank cutoff")
		terms   = flag.Int("terms", 3, "terms per query")
		zipfS   = flag.Float64("zipf-s", 1.2, "Zipf skew of term draws (> 1)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		label   = flag.String("label", "run", "metric key label: loadgen/<label>/qps")
		report  = flag.String("report", "", "write the JSON report here (default stdout)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request timeout")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Target: *target, Mode: *mode, Workers: *workers, Requests: *reqs,
		Rate: *rate, Batch: *batch, Stream: *stream, DupRate: *dupRate,
		Alg: *alg, K: *k, Terms: *terms,
		ZipfS: *zipfS, Seed: *seed, Label: *label, Timeout: *timeout,
	}
	if *spawn {
		if *target != "" {
			fatal(fmt.Errorf("-spawn and -target are mutually exclusive"))
		}
		d, err := loadgen.Spawn(loadgen.SpawnConfig{
			Shards: *shards, DBs: *dbs,
			Admission: admission.Config{MaxInFlight: *maxIn},
		})
		if err != nil {
			fatal(err)
		}
		defer d.Close()
		cfg.Target = d.URL
		cfg.Vocab = d.Vocab
	} else {
		if *target == "" {
			fatal(fmt.Errorf("need -target URL or -spawn"))
		}
		// Against an external target the workload draws from the same
		// synthetic pool a spawned deployment serves, so a spawned selectd
		// on another port behaves identically to -spawn.
		_, cfg.Vocab = loadgen.SyntheticModels(1, 0xbe7c)
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if *report != "" {
		if err := os.WriteFile(*report, out, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(out)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d requests (%d queries) in %.2fs: %.0f qps, p50 %.0fus p95 %.0fus p99 %.0fus, shed %d, errors %d\n",
		rep.Requests, rep.Queries, rep.ElapsedSeconds, rep.QPS, rep.P50us, rep.P95us, rep.P99us, rep.Shed, rep.Errors)
	if *stream {
		fmt.Fprintf(os.Stderr, "loadgen: ttfr p50 %.0fus p95 %.0fus p99 %.0fus\n",
			rep.TTFRP50us, rep.TTFRP95us, rep.TTFRP99us)
	}
	if rep.CoalescedBatch > 0 || rep.CoalescedFlight > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: coalesced batch %d, flight %d\n",
			rep.CoalescedBatch, rep.CoalescedFlight)
	}
	if rep.Errors > 0 {
		fatal(fmt.Errorf("%d requests failed (first: %s)", rep.Errors, rep.FirstError))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
