package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/netsearch"
	"repro/internal/selection"
	"repro/internal/service"
)

var glossSum = selection.Gloss{Estimator: selection.GlossSum}

// fanEntry is one row of a fanout answer, kept compactly (no pointers)
// until the window ends and the answers are checked.
type fanEntry struct {
	db    int32
	score float64
}

// fanItem is one query of a fanout batch as answered.
type fanItem struct {
	q      string
	off, n int32 // the item's rows in its client's entry arena
	bad    bool  // unknown database name or a per-item error
}

// fanoutRecs is one client's answers.
type fanoutRecs struct {
	items   []fanItem
	entries []fanEntry
	batches int
	dups    int // queries that repeat an earlier query of their batch
}

// runFanout drives POST /rank/batch on a two-shard front: eight fresh
// gloss-sum queries per request, which bypass the service LRU.
func runFanout(cfg config) (*result, error) {
	res := newResult()
	an := analysis.Database()
	in := newPointInputs(cfg.seed)
	var stCl closers
	defer stCl.close()
	st, err := modelStore(in, cfg.tmp, &stCl)
	if err != nil {
		return nil, err
	}
	d, setups, err := timeSetups(cfg.setups, func() (*fanoutDeploy, error) {
		d, err := deployFanout(in, st)
		if err != nil {
			return nil, err
		}
		if err := firstFanoutRank(d.url, in, an); err != nil {
			d.cl.close()
			return nil, err
		}
		return d, nil
	}, func(d *fanoutDeploy) { d.cl.close() })
	if err != nil {
		return nil, fmt.Errorf("fanout set-up: %w", err)
	}
	defer d.cl.close()
	setSetup(res, setups)
	res.note("e2e: each set-up starts the deployment from a store the %d models were written to once; the writes are input preparation", len(in.models))

	byName := nameIndex(in.names)
	hs := make([]*httpClient, clients)
	streams := make([]*clientStream, clients)
	recs := make([]fanoutRecs, clients)
	resp := make([]batchResponse, clients)
	errs := make(firstErr, clients)
	for c := range hs {
		hs[c] = newHTTPClient(d.url)
		defer hs[c].close()
		streams[c] = in.seed.client(c, in.vocab)
	}
	request := func(c int) ([]string, error) {
		batch := in.nextBatch(streams[c])
		r := &recs[c]
		r.batches++
		for i, q := range batch {
			for _, p := range batch[:i] {
				if p == q {
					r.dups++
					break
				}
			}
		}
		if err := hs[c].rankBatch(batch, "gloss-sum", &resp[c]); err != nil {
			errs.set(c, err)
			return batch, err
		}
		for i, it := range resp[c].Results {
			item := fanItem{q: batch[i], off: int32(len(r.entries)), n: int32(len(it.Ranked)), bad: it.Error != ""}
			for _, row := range it.Ranked {
				db, ok := byName[row.Name]
				if !ok {
					item.bad = true
				}
				r.entries = append(r.entries, fanEntry{db: int32(db), score: row.Score})
			}
			r.items = append(r.items, item)
		}
		return batch, nil
	}
	untraced := cfg.window
	if cfg.trace {
		untraced = cfg.window / 2
	}
	before := fanoutCounters(d)
	probe := startRuntimeProbe()
	lr := closedLoop(clients, untraced, func(c int) (int, int) {
		if _, err := request(c); err != nil {
			return fanoutBatch, fanoutBatch
		}
		return fanoutBatch, 0
	})
	if cfg.trace {
		probe.finish(res, lr)
	}
	after := fanoutCounters(d)
	res.attempted += lr.attempted
	res.failed += lr.failed
	untracedP50 := quantile(lr.latenciesUS(), 0.5)
	if !cfg.trace {
		setE2E(res, lr, "batch requests of 8 queries")
	}
	hits := counterDelta(before, after, "service_select_cache_hits_total")
	misses := counterDelta(before, after, "service_select_cache_misses_total")
	coalesced := counterDelta(before, after, "coalesced")
	res.note("fanout: shard cache hits %.0f, misses %.0f (batches bypass the LRU); coalesced at front and shards %.0f", hits, misses, coalesced)
	if cfg.trace {
		res.set("service.cache_hit_ratio", 0)
		res.set("service.cache_hits", hits)
		res.set("service.cache_misses", misses)
		res.set("service.coalesced", coalesced)
		if err := traceFanout(cfg, res, d, in, request, errs, untracedP50); err != nil {
			return nil, err
		}
	}
	errs.report(res)
	checkFanout(res, in, an, recs, d.owned)
	return res, nil
}

// fanoutCounters sums the front's and the shards' counters by name; the
// "coalesced" key totals every rank_coalesced_total series.
func fanoutCounters(d *fanoutDeploy) map[string]int64 {
	out := map[string]int64{}
	snaps := []map[string]int64{d.frontReg.Snapshot().Counters}
	for _, reg := range d.shardRegs {
		snaps = append(snaps, reg.Snapshot().Counters)
	}
	for _, s := range snaps {
		for name, v := range s {
			out[name] += v
			if strings.Contains(name, "rank_coalesced_total") {
				out["coalesced"] += v
			}
		}
	}
	return out
}

// firstFanoutRank is the end of set-up: the first batch answered
// correctly.
func firstFanoutRank(url string, in *pointInputs, an analysis.Analyzer) error {
	h := newHTTPClient(url)
	defer h.close()
	batch := in.hot[:fanoutBatch]
	var resp batchResponse
	if err := h.rankBatch(batch, "gloss-sum", &resp); err != nil {
		return err
	}
	byName := nameIndex(in.names)
	for i, it := range resp.Results {
		rows := make([]fanEntry, len(it.Ranked))
		for j, r := range it.Ranked {
			db, ok := byName[r.Name]
			if !ok {
				return fmt.Errorf("first batch names unknown database %q", r.Name)
			}
			rows[j] = fanEntry{int32(db), r.Score}
		}
		if !scoreMatch(rows, glossSum.Scores(an.Tokens(batch[i]), in.models)) {
			return fmt.Errorf("first batch item %q does not match the reference", batch[i])
		}
	}
	return nil
}

// checkFanout compares every item with the full-federation gloss-sum map
// scorer score for score, and reports the batches' input properties.
func checkFanout(res *result, in *pointInputs, an analysis.Analyzer, recs []fanoutRecs, owned [][]int) {
	distinct := map[string]bool{}
	queries, dups := 0, 0
	for _, r := range recs {
		dups += r.dups
		queries += r.batches * fanoutBatch
		for _, it := range r.items {
			distinct[it.q] = true
			if it.bad || !scoreMatch(r.entries[it.off:it.off+it.n], glossSum.Scores(an.Tokens(it.q), in.models)) {
				res.fail(1, "fanout item %q differs from the full-federation gloss-sum scores", it.q)
			}
		}
	}
	largest := 0
	for _, o := range owned {
		largest = max(largest, len(o))
	}
	res.set("input.largest_shard_share", float64(largest)/float64(len(in.models)))
	res.note("input: the ring places %d, %d of the %d databases on the two shards", len(owned[0]), len(owned[1]), len(in.models))
	dupShare := float64(dups) / float64(max(queries, 1))
	res.set("input.batch_dup_share", dupShare)
	res.set("input.distinct_queries", float64(len(distinct)))
	res.note("input: %d queries in batches of %d, within-batch duplicate share %.4f, %d distinct queries",
		queries, fanoutBatch, dupShare, len(distinct))
}

// traceFanout is the traced window: each batch request is followed by
// direct calls down the scatter path on the same batch — the front, each
// shard over the benchmark's own netsearch client, each shard's service,
// and per query the analyzer and a benchmark-built compiled snapshot of
// the shard's models. The direct calls run one after another; the front
// runs its shards in parallel, so only the slowest shard is subtracted
// from the front's time.
func traceFanout(cfg config, res *result, d *fanoutDeploy, in *pointInputs,
	request func(int) ([]string, error), errs firstErr, untracedP50 float64) error {
	an := analysis.Database()
	timeCompile(res, in.models)
	compiled := make([]*selection.Compiled, fanoutShards)
	for s := range compiled {
		models := make([]*langmodel.Model, len(d.owned[s]))
		for j, i := range d.owned[s] {
			models[j] = in.models[i]
		}
		compiled[s] = selection.Compile(models)
	}
	own := make([][]*netsearch.Client, clients)
	var cl closers
	defer cl.close()
	for c := range own {
		for _, addr := range d.addrs {
			nc, err := netsearch.Dial(addr)
			if err != nil {
				return err
			}
			cl.add(nc.Close)
			own[c] = append(own[c], nc)
		}
	}

	tr := newTracer()
	bufs := make([]*spanBuf, clients)
	for c := range bufs {
		bufs[c] = tr.buf()
	}
	scr := make([]rankScratch, clients)
	tr.on.Store(true)
	lr := closedLoop(clients, cfg.window/2, func(c int) (int, int) {
		b, sc := bufs[c], &scr[c]
		rid := tr.req()
		t0 := time.Now()
		batch, err := request(c)
		root := b.record("client", rid, 0, t0, time.Now(), 0)
		if err != nil {
			return fanoutBatch, fanoutBatch
		}
		t1 := time.Now()
		_, err = d.front.RankBatch(batch, "gloss-sum", rankK, "")
		crb := b.record("cluster.rank_batch", rid, root, t1, time.Now(), 0)
		for s := range d.shards {
			t2 := time.Now()
			_, e1 := own[c][s].RankDBsBatch(batch, "gloss-sum", rankK, "")
			nrb := b.record("netsearch.rank_batch", rid, crb, t2, time.Now(), s)
			t3 := time.Now()
			_, e2 := d.shards[s].RankBatch(batch, "gloss-sum", rankK)
			srb := b.record("service.rank_batch", rid, nrb, t3, time.Now(), s)
			if len(d.owned[s]) == 0 && errors.Is(e2, service.ErrNoModels) {
				e2 = nil // a shard that owns no database: the front fuses its empty partial away
			}
			for _, e := range []error{e1, e2} {
				if e != nil && err == nil {
					err = e
				}
			}
			for _, q := range batch {
				t4 := time.Now()
				sc.tokenize(an, q)
				t5 := time.Now()
				b.record("analysis.tokenize", rid, srb, t4, t5, s)
				sc.rank(compiled[s], glossSum)
				b.record("selection.rank", rid, srb, t5, time.Now(), s)
			}
		}
		if err != nil {
			errs.set(c, err)
			return fanoutBatch, fanoutBatch
		}
		return fanoutBatch, 0
	})
	tr.on.Store(false)
	res.attempted += lr.attempted
	res.failed += lr.failed
	res.spans = tr.collect(bufs...)
	ix := indexSpans(res.spans)

	// Per request: client = HTTP self + front self + the slowest shard's
	// wire self + that shard's service self + its tokenizing + its ranks.
	var httpSelf, frontSelf, wire, wireAll, svcSelf, tok, rank []float64
	for _, root := range ix.byName["client"] {
		kids := ix.children[root.ID]
		if len(kids) != 1 {
			continue
		}
		crb := kids[0]
		httpSelf = append(httpSelf, us(root.dur()-crb.dur()))
		var slow span
		for _, n := range ix.children[crb.ID] {
			if n.dur() > slow.dur() {
				slow = n
			}
			for _, sv := range ix.children[n.ID] {
				wireAll = append(wireAll, us(n.dur()-sv.dur()))
			}
		}
		frontSelf = append(frontSelf, us(crb.dur()-slow.dur()))
		svs := ix.children[slow.ID]
		if len(svs) != 1 {
			continue
		}
		sv := svs[0]
		wire = append(wire, us(slow.dur()-sv.dur()))
		self, tk, rk := sv.dur(), time.Duration(0), time.Duration(0)
		for _, k := range ix.children[sv.ID] {
			self -= k.dur()
			if k.Name == "analysis.tokenize" {
				tk += k.dur()
			} else {
				rk += k.dur()
			}
		}
		svcSelf = append(svcSelf, us(self))
		tok = append(tok, us(tk))
		rank = append(rank, us(rk))
	}
	res.set("httpapi.self_us", median(httpSelf))
	res.set("cluster.rank_batch_us", ix.medianUS("cluster.rank_batch"))
	res.set("cluster.fanout_self_us", median(frontSelf))
	res.set("netsearch.rank_batch_us", ix.medianUS("netsearch.rank_batch"))
	res.set("service.rank_batch_us", ix.medianUS("service.rank_batch"))
	res.set("netsearch.wire_us", median(wireAll))
	res.set("analysis.tokenize_us", ix.medianUS("analysis.tokenize"))
	res.set("selection.rank_us", ix.medianUS("selection.rank"))
	tracedP50 := ix.medianUS("client")
	res.set("trace.overhead_pct", overheadPct(tracedP50, untracedP50))
	parts := []float64{median(httpSelf), median(frontSelf), median(wire), median(svcSelf), median(tok), median(rank)}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	res.set("budget.residual_us", untracedP50-sum)
	res.note("budget: untraced p50 %.1fus = httpapi self %.1f + front self %.1f + wire %.1f + shard service self %.1f + tokenize %.1f + rank %.1f + residual %.1f",
		untracedP50, parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], untracedP50-sum)
	return nil
}
