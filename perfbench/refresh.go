package main

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/netsearch"
	"repro/internal/selection"
	"repro/internal/service"
)

// minCtfRatio is the paper's claim for a 300-document sample: the learned
// vocabulary covers over 80% of the database's term occurrences.
const minCtfRatio = 0.8

// finalQueries is how many quiesced ranks are checked after the window.
const finalQueries = 64

// sampleRec is one sampling run of the timed phase.
type sampleRec struct {
	dur           time.Duration
	docs, queries int
}

// sampleOpts are the options of every sampling run.
func sampleOpts(seed uint64) service.SampleOptions {
	return service.SampleOptions{Docs: sampleDocs, PerQuery: samplePerQ, Seed: seed}
}

// runRefresh drives GET /rank with one client while one loop re-samples
// the federation's databases round-robin through the service.
func runRefresh(cfg config) (*result, error) {
	res := newResult()
	an := analysis.Database()
	t0 := time.Now()
	in, err := newRefreshInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	res.note("input: federation of %d databases x %d documents built in %.2fs; it stands for the remote databases and is not part of setup_s",
		refreshDBs, refreshDocs, time.Since(t0).Seconds())
	tr := newTracer()
	d, setups, err := timeSetups(cfg.setups, func() (*refreshDeploy, error) {
		d, err := deployRefresh(in, tr, cfg.tmp, in.seed.modelSeed(hotFork))
		if err != nil {
			return nil, err
		}
		if err := finalRanks(d, in, an, 1, nil); err != nil {
			d.cl.close()
			return nil, err
		}
		return d, nil
	}, func(d *refreshDeploy) { d.cl.close() })
	if err != nil {
		return nil, fmt.Errorf("refresh set-up: %w", err)
	}
	defer d.cl.close()
	setSetup(res, setups)

	byName := nameIndex(d.names)
	h := newHTTPClient(d.url)
	defer h.close()
	cs := in.seed.client(0, nil)
	errs := make(firstErr, 2)
	distinct := map[string]bool{}
	var rows []rankedDB
	request := func(int) (int, int) {
		q := in.next(cs)
		distinct[q] = true
		if err := h.rank(q, "cori", &rows); err != nil {
			errs.set(0, err)
			return 1, 1
		}
		if !wellFormed(rows, byName) {
			errs.set(0, fmt.Errorf("malformed ranking for %q: %v", q, rows))
			return 1, 1
		}
		return 1, 0
	}
	untraced := cfg.window
	if cfg.trace {
		untraced = cfg.window / 2
	}
	next := 0 // sampling runs so far; the next one's seed index
	before := d.reg.Snapshot().Counters
	probe := startRuntimeProbe()
	var samples []sampleRec
	lr := withSampler(func() error {
		name := d.names[next%len(d.names)]
		t0 := time.Now()
		st, err := d.svc.Sample(name, sampleOpts(in.sampleSeed(next)))
		next++
		if err != nil {
			errs.set(1, err)
			return err
		}
		samples = append(samples, sampleRec{time.Since(t0), st.SampledDocs, st.Queries})
		return nil
	}, res, func() *loopResult { return closedLoop(1, untraced, request) })
	if cfg.trace {
		probe.finish(res, lr)
	}
	after := d.reg.Snapshot().Counters
	res.attempted += lr.attempted
	res.failed += lr.failed

	var docs int
	var busy time.Duration
	per := make([]float64, 0, len(samples))
	var qs, ds []float64
	for _, s := range samples {
		docs += s.docs
		busy += s.dur
		per = append(per, float64(s.dur.Microseconds())/1e3)
		qs = append(qs, float64(s.queries))
		ds = append(ds, float64(s.docs))
	}
	docsPerS := 0.0
	if busy > 0 {
		docsPerS = float64(docs) / busy.Seconds()
	}
	res.note("e2e: sample_docs_per_s is %d docs in %d sampling runs over %.2fs of sampler busy time", docs, len(samples), busy.Seconds())
	full := counterDelta(before, after, `service_snapshot_compiles_total{scope="full"}`)
	incr := counterDelta(before, after, `service_snapshot_compiles_total{scope="incremental"}`)
	res.note("refresh: snapshot compiles in the window: %.0f full, %.0f incremental", full, incr)
	untracedP50 := quantile(lr.latenciesUS(), 0.5)
	res.set("sample_docs_per_s", docsPerS)
	if !cfg.trace {
		setE2E(res, lr, "requests (cpu_us_per_query includes the sampler's CPU)")
	} else {
		res.set("service.sample_ms", median(per))
		res.set("core.queries_per_sample", median(qs))
		res.set("core.docs_per_sample", median(ds))
		res.set("service.snapshot_compiles_full", full)
		res.set("service.snapshot_compiles_incremental", incr)
		res.set("input.distinct_queries", float64(len(distinct)))
		if err := traceRefresh(cfg, res, d, in, tr, request, &next, untracedP50, errs); err != nil {
			return nil, err
		}
	}
	errs.report(res)
	res.note("input: %d distinct rank queries of 2 topical terms", len(distinct))
	if err := finalRanks(d, in, an, finalQueries, res); err != nil {
		return nil, err
	}
	return res, nil
}

// withSampler runs loop while a second goroutine calls sample back to
// back; it stops the sampler when loop returns and waits for the run in
// flight. Sampling runs count as operations: a failed run fails.
func withSampler(sample func() error, res *result, loop func() *loopResult) *loopResult {
	stop := make(chan struct{})
	done := make(chan struct{})
	runs, failed := 0, 0
	//lint:ignore baregoroutine the sampler runs beside the client loop and is joined through done before withSampler returns
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			runs++
			if err := sample(); err != nil {
				failed++
			}
		}
	}()
	lr := loop()
	close(stop)
	<-done
	res.attempted += runs
	res.failed += failed
	return lr
}

// finalRanks is run with sampling quiesced: it checks that n ranks over
// HTTP equal the map scorer over the stored models bit for bit and, when
// res is given, that every stored model covers at least minCtfRatio of
// its database's term occurrences. With res nil a mismatch is an error
// (the set-up's first correct rank).
func finalRanks(d *refreshDeploy, in *refreshInputs, an analysis.Analyzer, n int, res *result) error {
	models, err := d.storedModels()
	if err != nil {
		return err
	}
	h := newHTTPClient(d.url)
	defer h.close()
	cs := in.seed.client(50, nil)
	var rows []rankedDB
	for i := 0; i < n; i++ {
		q := in.next(cs)
		want := fingerprint(referenceRank(an, selection.CORI{}, q, d.names, models))
		err := h.rank(q, "cori", &rows)
		switch {
		case res == nil && err != nil:
			return err
		case res == nil && fingerprint(rows) != want:
			return fmt.Errorf("rank of %q does not match the reference", q)
		case res == nil:
		case err != nil:
			res.fail(1, "quiesced rank of %q: %v", q, err)
		case fingerprint(rows) != want:
			res.fail(1, "quiesced rank of %q differs from selection.Rank over the stored models", q)
		}
	}
	if res == nil {
		return nil
	}
	res.attempted += n + len(models)
	lowest := 1.0
	for i, m := range models {
		r := metrics.CtfRatio(m, in.dbs[i].Actual)
		lowest = min(lowest, r)
		if r < minCtfRatio {
			res.fail(1, "stored model of %s covers ctf ratio %.3f < %.2f", d.names[i], r, minCtfRatio)
		}
	}
	res.note("refresh: %d quiesced ranks checked; lowest stored-model ctf ratio %.4f (claim: > %.2f)", n, lowest, minCtfRatio)
	return nil
}

// timedClient is the benchmark's own netsearch client to one database,
// timing every probe core.Sample makes through it.
type timedClient struct {
	c           *netsearch.Client
	b           *spanBuf
	req, parent int64
}

func (tc *timedClient) Search(q string, n int) ([]int, error) {
	t0 := time.Now()
	ids, err := tc.c.Search(q, n)
	tc.b.record("netsearch.probe", tc.req, tc.parent, t0, time.Now(), 0)
	return ids, err
}

func (tc *timedClient) Fetch(id int) (corpus.Document, error) {
	t0 := time.Now()
	doc, err := tc.c.Fetch(id)
	tc.b.record("netsearch.probe", tc.req, tc.parent, t0, time.Now(), 0)
	return doc, err
}

// traceRefresh is the traced window. The rank client records its
// requests; the sampler loop, after each Service.Sample, times the first
// rank that follows it, then replays the same sampling run step by step
// through the layers' public functions: core.Sample over its own timed
// netsearch client, Normalize, store.Put into its own store, and Patch of
// its own compiled snapshot.
func traceRefresh(cfg config, res *result, d *refreshDeploy, in *refreshInputs, tr *tracer,
	request op, next *int, untracedP50 float64, errs firstErr) error {
	an := analysis.Database()
	cur, err := d.storedModels()
	if err != nil {
		return err
	}
	compiled := timeCompile(res, cur)
	var cl closers
	defer cl.close()
	own := make([]*netsearch.Client, len(d.addrs))
	for i, addr := range d.addrs {
		c, err := netsearch.Dial(addr)
		if err != nil {
			return err
		}
		cl.add(c.Close)
		own[i] = c
	}
	ownStore, err := openStore(cfg.tmp, &cl)
	if err != nil {
		return err
	}

	rankBuf, sampleBuf := tr.buf(), tr.buf()
	probeQ := in.topical[0][0]
	tr.on.Store(true)
	lr := withSampler(func() error {
		i := *next % len(d.names)
		name, db := d.names[i], d.dbs[i]
		seed := in.sampleSeed(*next)
		*next++
		rid := tr.req()
		sid := tr.reserve()
		db.setOwner(rid, sid)
		t0 := time.Now()
		_, err := d.svc.Sample(name, sampleOpts(seed))
		sampleBuf.recordID(sid, "service.sample", rid, 0, t0, time.Now(), 0)
		if err != nil {
			errs.set(1, err)
			return err
		}
		t1 := time.Now()
		_, err = d.svc.Rank(probeQ, "cori", rankK)
		sampleBuf.record("service.first_rank_after_sample", rid, sid, t1, time.Now(), 0)
		if err != nil {
			errs.set(1, err)
			return err
		}

		cid := tr.reserve()
		db.setOwner(rid, cid)
		tc := &timedClient{c: own[i], b: sampleBuf, req: rid, parent: cid}
		t2 := time.Now()
		r, err := core.Sample(tc, core.Config{
			DocsPerQuery: samplePerQ,
			Selector:     core.RandomLLM{},
			Stop:         core.StopAfterDocs(sampleDocs),
			InitialModel: cur[i],
			Analyzer:     analysis.Raw(),
			Seed:         seed,
		})
		sampleBuf.recordID(cid, "core.sample", rid, sid, t2, time.Now(), 0)
		if err != nil {
			errs.set(1, err)
			return err
		}
		t3 := time.Now()
		m := r.Learned.Normalize(an)
		t4 := time.Now()
		sampleBuf.record("langmodel.normalize", rid, sid, t3, t4, 0)
		err = ownStore.Put(name, m)
		t5 := time.Now()
		sampleBuf.record("store.put", rid, sid, t4, t5, 0)
		if err != nil {
			errs.set(1, err)
			return err
		}
		patched, err := compiled.Patch([]selection.ModelPatch{{DB: i, Old: cur[i], New: m}})
		sampleBuf.record("selection.patch", rid, sid, t5, time.Now(), 0)
		if err != nil {
			errs.set(1, err)
			return err
		}
		compiled, cur[i] = patched, m
		return nil
	}, res, func() *loopResult {
		return closedLoop(1, cfg.window/2, func(c int) (int, int) {
			rid := tr.req()
			t0 := time.Now()
			n, f := request(c)
			rankBuf.record("client", rid, 0, t0, time.Now(), 0)
			return n, f
		})
	})
	tr.on.Store(false)
	res.attempted += lr.attempted
	res.failed += lr.failed
	for _, db := range d.dbs {
		db.setOwner(0, 0)
	}
	res.spans = tr.collect(rankBuf, sampleBuf)
	ix := indexSpans(res.spans)

	// Per sampling run: the service's run compared with the replayed one,
	// split into probe round trips, the sampler's own work, normalizing
	// and the store write.
	var probe, coreSelf, norm, put []float64
	for _, cs := range ix.byName["core.sample"] {
		var p time.Duration
		for _, k := range ix.children[cs.ID] {
			if k.Name == "netsearch.probe" {
				p += k.dur()
			}
		}
		probe = append(probe, us(p))
		coreSelf = append(coreSelf, us(cs.dur()-p))
	}
	for _, s := range ix.byName["langmodel.normalize"] {
		norm = append(norm, us(s.dur()))
	}
	for _, s := range ix.byName["store.put"] {
		put = append(put, us(s.dur()))
	}
	res.set("index.search_us", ix.medianUS("index.search"))
	res.set("index.fetch_us", ix.medianUS("index.fetch"))
	res.set("netsearch.probe_us", ix.medianUS("netsearch.probe"))
	res.set("core.self_ms", median(coreSelf)/1e3)
	res.set("langmodel.normalize_ms", median(norm)/1e3)
	res.set("store.put_ms", median(put)/1e3)
	res.set("selection.patch_ms", ix.medianUS("selection.patch")/1e3)
	res.set("service.first_rank_after_sample_us", ix.medianUS("service.first_rank_after_sample"))
	res.set("trace.overhead_pct", overheadPct(ix.medianUS("client"), untracedP50))
	sampleUS := ix.medianUS("service.sample")
	sum := median(probe) + median(coreSelf) + median(norm) + median(put)
	res.set("budget.residual_us", sampleUS-sum)
	res.note("budget: a sampling run (service.sample p50 %.0fus) = probes %.0f + core self %.0f + normalize %.0f + store put %.0f + residual %.0f",
		sampleUS, median(probe), median(coreSelf), median(norm), median(put), sampleUS-sum)
	return nil
}

var _ core.Database = (*timedClient)(nil)
