package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// pointRec is one point request as answered.
type pointRec struct {
	q   string
	fp  uint64 // fingerprint of the answer; 0 when the request failed
	hot bool
}

// runPoint drives GET /rank on a single-process service: one 3-term CORI
// query per request, half from a hot pool the LRU holds and half fresh.
func runPoint(cfg config) (*result, error) {
	res := newResult()
	an := analysis.Database()
	in := newPointInputs(cfg.seed)
	var stCl closers
	defer stCl.close()
	st, err := modelStore(in, cfg.tmp, &stCl)
	if err != nil {
		return nil, err
	}
	d, setups, err := timeSetups(cfg.setups, func() (*pointDeploy, error) {
		d, err := deployPoint(in, st)
		if err != nil {
			return nil, err
		}
		if err := firstPointRank(d.url, in, an); err != nil {
			d.cl.close()
			return nil, err
		}
		return d, nil
	}, func(d *pointDeploy) { d.cl.close() })
	if err != nil {
		return nil, fmt.Errorf("point set-up: %w", err)
	}
	defer d.cl.close()
	setSetup(res, setups)
	res.note("e2e: each set-up starts the deployment from a store the %d models were written to once; the writes are input preparation", len(in.models))

	hs := make([]*httpClient, clients)
	streams := make([]*clientStream, clients)
	for c := range hs {
		hs[c] = newHTTPClient(d.url)
		defer hs[c].close()
		streams[c] = in.seed.client(c, in.vocab)
	}
	errs := make(firstErr, clients)
	recs := make([][]pointRec, clients)
	rows := make([][]rankedDB, clients)
	request := func(c int) (string, error) {
		q, hot := in.next(streams[c])
		err := hs[c].rank(q, "cori", &rows[c])
		rec := pointRec{q: q, hot: hot}
		if err == nil {
			rec.fp = fingerprint(rows[c])
		} else {
			errs.set(c, err)
		}
		recs[c] = append(recs[c], rec)
		return q, err
	}
	untraced := cfg.window
	if cfg.trace {
		untraced = cfg.window / 2
	}
	before, err := scrapeCounters(hs[0])
	if err != nil {
		return nil, err
	}
	probe := startRuntimeProbe()
	lr := closedLoop(clients, untraced, func(c int) (int, int) {
		if _, err := request(c); err != nil {
			return 1, 1
		}
		return 1, 0
	})
	if cfg.trace {
		probe.finish(res, lr)
	}
	after, err := scrapeCounters(hs[0])
	if err != nil {
		return nil, err
	}
	res.attempted += lr.attempted
	res.failed += lr.failed

	hits := counterDelta(before, after, "service_select_cache_hits_total")
	misses := counterDelta(before, after, "service_select_cache_misses_total")
	coalesced := counterDelta(before, after, `service_rank_coalesced_total{scope="flight"}`) +
		counterDelta(before, after, `service_rank_coalesced_total{scope="batch"}`)
	if !cfg.trace {
		setE2E(res, lr, "requests")
	}
	untracedP50 := quantile(lr.latenciesUS(), 0.5)

	if cfg.trace {
		res.set("service.cache_hit_ratio", hits/math.Max(hits+misses, 1))
		res.set("service.cache_hits", hits)
		res.set("service.cache_misses", misses)
		res.set("service.coalesced", coalesced)
		if err := tracePoint(cfg, res, d, in, request, untracedP50); err != nil {
			return nil, err
		}
	}
	errs.report(res)
	res.note("point: cache hits %.0f, misses %.0f, coalesced %.0f in the untraced window", hits, misses, coalesced)
	checkPoint(res, in, an, recs)
	return res, nil
}

// firstPointRank is the end of set-up: the first rank answered correctly.
func firstPointRank(url string, in *pointInputs, an analysis.Analyzer) error {
	h := newHTTPClient(url)
	defer h.close()
	q := in.hot[0]
	var rows []rankedDB
	if err := h.rank(q, "cori", &rows); err != nil {
		return err
	}
	if fingerprint(rows) != fingerprint(referenceRank(an, selection.CORI{}, q, in.names, in.models)) {
		return fmt.Errorf("first rank of %q does not match the reference", q)
	}
	return nil
}

// checkPoint compares every answer with the map scorer's ranking bit for
// bit, and reports the stream's input properties.
func checkPoint(res *result, in *pointInputs, an analysis.Analyzer, recs [][]pointRec) {
	want := map[string]uint64{}
	total, hot := 0, 0
	for _, rs := range recs {
		for _, r := range rs {
			total++
			if r.hot {
				hot++
			}
			if r.fp == 0 {
				continue // a failed request, already counted
			}
			fp, ok := want[r.q]
			if !ok {
				fp = fingerprint(referenceRank(an, selection.CORI{}, r.q, in.names, in.models))
				want[r.q] = fp
			}
			if fp != r.fp {
				res.fail(1, "point answer for %q differs from selection.Rank", r.q)
			}
		}
	}
	hotShare := float64(hot) / float64(max(total, 1))
	res.set("input.hot_share", hotShare)
	res.set("input.distinct_queries", float64(len(want)))
	res.set("input.lru_capacity", service.DefaultRankCacheSize)
	res.note("input: %d requests, hot-pool share %.4f (pool %d), %d distinct queries against an LRU of %d",
		total, hotShare, len(in.hot), len(want), service.DefaultRankCacheSize)
}

// tracePoint is the traced window: each request is followed by direct
// calls into the layers underneath it, on the same query. The direct
// Service.Rank goes to a per-client replica over the same store, so the
// replica's cache sees the same stream and the served cache is not
// disturbed.
func tracePoint(cfg config, res *result, d *pointDeploy, in *pointInputs,
	request func(int) (string, error), untracedP50 float64) error {
	an := analysis.Database()
	compiled := timeCompile(res, in.models)

	replicas := make([]*service.Service, clients)
	regs := make([]*telemetry.Registry, clients)
	var cl closers
	defer cl.close()
	for c := range replicas {
		svc, reg, err := warmService(d.st, in.names)
		if err != nil {
			return err
		}
		cl.add(svc.Close)
		for _, q := range in.hot { // the served cache is warm too
			if _, err := svc.Rank(q, "cori", rankK); err != nil {
				return err
			}
		}
		replicas[c], regs[c] = svc, reg
	}

	tr := newTracer()
	bufs := make([]*spanBuf, clients)
	scr := make([]rankScratch, clients)
	for c := range bufs {
		bufs[c] = tr.buf()
	}
	tr.on.Store(true)
	lr := closedLoop(clients, cfg.window/2, func(c int) (int, int) {
		b, s := bufs[c], &scr[c]
		rid := tr.req()
		t0 := time.Now()
		q, err := request(c)
		t1 := time.Now()
		root := b.record("client", rid, 0, t0, t1, 0)
		if err != nil {
			return 1, 1
		}
		hits := regs[c].Counter("service_select_cache_hits_total").Value()
		t2 := time.Now()
		_, err = replicas[c].Rank(q, "cori", rankK)
		t3 := time.Now()
		miss := 0
		if regs[c].Counter("service_select_cache_hits_total").Value() == hits {
			miss = 1
		}
		sr := b.record("service.rank", rid, root, t2, t3, miss)
		t4 := time.Now()
		s.tokenize(an, q)
		t5 := time.Now()
		b.record("analysis.tokenize", rid, sr, t4, t5, 0)
		s.rank(compiled, selection.CORI{})
		t6 := time.Now()
		b.record("selection.rank", rid, sr, t5, t6, miss)
		if err != nil {
			return 1, 1
		}
		return 1, 0
	})
	tr.on.Store(false)
	res.attempted += lr.attempted
	res.failed += lr.failed
	res.spans = tr.collect(bufs...)
	ix := indexSpans(res.spans)

	// Per request, the client's time splits exactly into the self times
	// of HTTP, the service around its inner calls, tokenizing, and (on a
	// cache miss) the compiled rank.
	var httpSelf, svcSelf, tok, rank []float64
	for _, root := range ix.byName["client"] {
		kids := ix.children[root.ID]
		if len(kids) != 1 {
			continue // the request failed before the direct calls
		}
		sr := kids[0]
		httpSelf = append(httpSelf, us(root.dur()-sr.dur()))
		self, tk, rk := sr.dur(), 0.0, 0.0
		for _, k := range ix.children[sr.ID] {
			switch {
			case k.Name == "analysis.tokenize":
				self -= k.dur()
				tk = us(k.dur())
			case k.Name == "selection.rank" && k.Flag == 1:
				self -= k.dur()
				rk = us(k.dur())
			}
		}
		svcSelf = append(svcSelf, us(self))
		tok = append(tok, tk)
		rank = append(rank, rk)
	}
	res.set("httpapi.self_us", median(httpSelf))
	res.set("service.rank_us", ix.medianUS("service.rank"))
	res.set("analysis.tokenize_us", ix.medianUS("analysis.tokenize"))
	res.set("selection.rank_us", ix.medianUS("selection.rank"))
	tracedP50 := ix.medianUS("client")
	res.set("trace.overhead_pct", overheadPct(tracedP50, untracedP50))
	sum := median(httpSelf) + median(svcSelf) + median(tok) + median(rank)
	res.set("budget.residual_us", untracedP50-sum)
	res.note("budget: untraced p50 %.1fus = httpapi self %.1f + service self %.1f + tokenize %.1f + rank-on-miss %.1f + residual %.1f",
		untracedP50, median(httpSelf), median(svcSelf), median(tok), median(rank), untracedP50-sum)
	return nil
}
