package service

import (
	"repro/internal/httpapi"
	"repro/internal/netsearch"
	"repro/internal/selection"
)

// Batch rank: the high-QPS serving entry point (DESIGN.md §14–15). A batch
// request carries many queries that share one algorithm and one k; the
// service parses the algorithm once, acquires the compiled snapshot once,
// and reuses a single pooled rankScratch across every query — so the
// per-query cost converges on pure tokenize+score, with the per-request
// overhead (pool round-trips, snapshot load, timer, HTTP envelope when
// called over the wire) amortized across the batch.
//
// Two layers of coalescing ride on top (DESIGN.md §15): identical queries
// *within* one batch rank once and copy into each position
// (rank_coalesced_total{scope=batch}), and a batch item identical to any
// rank in flight elsewhere — another batch, a single /rank — joins that
// flight instead of recomputing (scope=flight). Both are bit-identical to
// independent ranks because every path funnels into rankKeyed against the
// same epoch's snapshot.

// BatchItem is one query's outcome inside a batch ranking — the same type
// the cluster wire carries. Items fail independently: a query that
// tokenizes to nothing reports its error here while its neighbors still
// rank.
type BatchItem = netsearch.RankedBatch

// RankBatch ranks every query in the batch against the same compiled
// snapshot, returning one BatchItem per query in input order. Whole-batch
// failures — an unknown algorithm (ErrInvalid), an empty batch
// (ErrInvalid), a federation with no learned models (ErrNoModels) — are
// returned as an error; per-query problems land in the item's Error.
//
// RankBatch scores exactly like Rank (both funnel into rankKeyed), so
// batched and sequential rankings are bit-identical. It deliberately
// bypasses the result cache's LRU: a batch is the bulk path, and filling
// the LRU with its queries would evict the interactive working set. It
// still coalesces with rankings in flight elsewhere, which caches nothing.
// A batch of one is a single query and uses the LRU like Rank does: that
// is how the cluster front's single-query ranks reach a shard.
func (s *Service) RankBatch(queries []string, algName string, k int) ([]BatchItem, error) {
	items := make([]BatchItem, len(queries))
	err := s.RankBatchStream(queries, algName, k, func(i int, item BatchItem) error {
		items[i] = item
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// RankBatchStream is RankBatch's streaming core: emit is called once per
// query, in input order, the moment that query's ranking completes — the
// HTTP layer flushes each item to the client instead of buffering the
// batch (POST /rank/batch?stream=1). A non-nil error from emit aborts the
// stream (the client disconnected); the error is returned as-is. Whole-
// batch failures are detected and returned before the first emit, so the
// HTTP layer can still answer them with a plain status code.
//
// The emitted Ranked slice is the caller's to keep: it is a fresh copy,
// never shared with the cache or other emits.
func (s *Service) RankBatchStream(queries []string, algName string, k int, emit func(i int, item BatchItem) error) error {
	m := s.inst.Load()
	sp := m.batchSeconds.Start()
	defer sp.End()

	if len(queries) == 0 {
		m.selectErrors.Inc()
		return httpapi.ErrEmptyBatch
	}
	alg, err := parseAlgorithm(algName)
	if err != nil {
		m.selectErrors.Inc()
		return err
	}
	snap := s.snapshot()
	if snap.compiled.NumDBs() == 0 {
		m.selectErrors.Inc()
		return ErrNoModels
	}
	algName = alg.Name()

	scr := rankScratchPool.Get().(*rankScratch)
	defer rankScratchPool.Put(scr)

	// seen holds this batch's completed rankings by term key, so a query
	// repeated within the batch ranks once — the slices are shared across
	// positions internally and copied per emit.
	var seen map[string][]RankedDB
	if len(queries) > 1 {
		seen = make(map[string][]RankedDB, len(queries))
	}
	admit := len(queries) == 1
	for i, q := range queries {
		item, err := s.rankBatchItem(m, snap, alg, algName, scr, q, k, seen, admit)
		if err != nil {
			item = BatchItem{Error: err.Error()}
		}
		if err := emit(i, item); err != nil {
			return err
		}
	}
	m.batchRanks.Inc()
	m.batchQueries.Add(int64(len(queries)))
	return nil
}

// rankBatchItem ranks one batch query: within-batch duplicates are served
// from seen, everything else goes through rankKeyed. A failed ranking (its
// flight's leader panicked) stays out of seen, so a later duplicate
// retries fresh instead of inheriting the failure.
func (s *Service) rankBatchItem(m *instruments, snap *snapshotSet, alg selection.Algorithm, algName string, scr *rankScratch, query string, k int, seen map[string][]RankedDB, admit bool) (BatchItem, error) {
	terms, err := s.termKey(scr, query)
	if err != nil {
		return BatchItem{}, err
	}
	val, ok := seen[terms]
	if ok {
		m.coalescedBatch.Inc()
	} else {
		key := rankKey{query: terms, alg: algName, k: k, epoch: snap.epoch}
		if val, _, err = s.rankKeyed(snap, alg, scr, key, admit); err != nil {
			return BatchItem{}, err
		}
		if seen != nil {
			seen[terms] = val
		}
	}
	return BatchItem{Ranked: append([]RankedDB(nil), val...)}, nil
}
