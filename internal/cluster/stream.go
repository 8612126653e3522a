package cluster

// Streaming scatter-gather (DESIGN.md §15) — the front's one rank
// pipeline. rankStream opens one "rankstream" exchange per slot, lets a
// reader goroutine buffer each slot's items as frames arrive, and fuses
// inline in input order: query i's fused ranking is emitted as soon as
// every slot has delivered *its* item i — queries i+1… may still be
// computing anywhere. Shards emit in input order too, so the gather never
// waits on an item it will not need next, and time-to-first-result is one
// query's scatter latency instead of the batch's. Rank is a one-query
// stream; RankBatch collects one.
//
// Duplicate queries within the batch collapse before the scatter: each
// unique query travels (and fuses) once, and every original position gets
// a copy (cluster_rank_coalesced_total{scope="batch"}).
//
// Divergence from the buffered RankBatch, by necessity: a federation with
// no models streams per-item ErrNoModels errors rather than a whole-batch
// 503 — streaming cannot wait to see every item before answering the
// first. Invalid-argument refusals still fail the whole batch before the
// first emit, because every slot refuses the same way and slot errors
// surface on the first wait.

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/httpapi"
	"repro/internal/netsearch"
	"repro/internal/parallel"
	"repro/internal/selection"
	"repro/internal/service"
)

// dedupQueries returns the unique queries in first-appearance order and,
// per original position, the index of its unique query.
func dedupQueries(queries []string) (uniq []string, pos []int) {
	pos = make([]int, len(queries))
	idx := make(map[string]int, len(queries))
	for i, q := range queries {
		u, ok := idx[q]
		if !ok {
			u = len(uniq)
			uniq = append(uniq, q)
			idx[q] = u
		}
		pos[i] = u
	}
	return uniq, pos
}

// gather buffers every slot's arriving rank stream for the inline fuser,
// under one lock. The fuser is woken once per query — when the last slot
// delivers it — not once per slot item. There is no backpressure by
// design: a batch is bounded by httpapi.MaxBatchQueries, so buffering all
// items costs less than stalling a shard's stream behind the slowest
// sibling slot.
type gather struct {
	mu       sync.Mutex
	cond     sync.Cond
	items    [][]netsearch.RankedBatch // [slot][query]
	have     [][]bool
	missing  []int   // per query: slots yet to deliver it
	done     []bool  // per slot: its stream is over
	errs     []error // per slot: terminal scatter failure, set by finish
	canceled bool
}

func newGather(slots, queries int) *gather {
	g := &gather{
		items:   make([][]netsearch.RankedBatch, slots),
		have:    make([][]bool, slots),
		missing: make([]int, queries),
		done:    make([]bool, slots),
		errs:    make([]error, slots),
	}
	g.cond.L = &g.mu
	for s := range g.items {
		g.items[s] = make([]netsearch.RankedBatch, queries)
		g.have[s] = make([]bool, queries)
	}
	for i := range g.missing {
		g.missing[i] = slots
	}
	return g
}

// put records one item arriving from slot. A duplicate index (a transport
// retry replaying the stream) keeps the first delivery — replicas serve
// identical models, so the replay is bit-identical anyway. Once the
// consumer has canceled, put refuses with ErrStreamCanceled, which aborts
// the client's stream at its next frame.
func (g *gather) put(slot, i int, item netsearch.RankedBatch) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.canceled {
		return netsearch.ErrStreamCanceled
	}
	if i < 0 || i >= len(g.missing) {
		return fmt.Errorf("cluster: stream item index %d out of range [0,%d)", i, len(g.missing))
	}
	if !g.have[slot][i] {
		g.items[slot][i] = item
		g.have[slot][i] = true
		if g.missing[i]--; g.missing[i] == 0 {
			g.cond.Broadcast()
		}
	}
	return nil
}

// finish marks slot's stream over; a non-nil err is the scatter failure
// waiters for its undelivered items will see.
func (g *gather) finish(slot int, err error) {
	g.mu.Lock()
	g.done[slot] = true
	g.errs[slot] = err
	g.cond.Broadcast()
	g.mu.Unlock()
}

// cancel poisons the gather: the waiter unblocks and every reader's next
// put aborts its RPC.
func (g *gather) cancel() {
	g.mu.Lock()
	g.canceled = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wait blocks until every slot has delivered item i and copies them into
// partials, one per slot. An item delivered before its slot's stream
// ended is still served — failure only poisons what it actually
// prevented.
func (g *gather) wait(i int, partials []netsearch.RankedBatch) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.missing[i] > 0 {
		for slot, done := range g.done {
			if done && !g.have[slot][i] {
				if err := g.errs[slot]; err != nil {
					return err
				}
				return fmt.Errorf("cluster: slot %d stream ended before item %d", slot, i)
			}
		}
		if g.canceled {
			return netsearch.ErrStreamCanceled
		}
		//lint:ignore lockheld sync.Cond.Wait atomically releases g.mu while blocked and reacquires it before returning — the canonical condvar wait, not I/O under a lock
		g.cond.Wait()
	}
	for slot := range partials {
		partials[slot] = g.items[slot][i]
	}
	return nil
}

// RankBatchStream streams a batch's fused rankings: emit receives each
// query's item, in input order, as soon as every slot has delivered its
// partial for that query. Per-query problems ride in the item's Error. A
// non-nil error from emit cancels the scatter (every slot's stream is torn
// down without failover or health penalty) and is returned as-is.
// Whole-batch refusals surface before the first emit. See the package
// comment above for the documented divergences from the buffered path.
func (f *Front) RankBatchStream(queries []string, alg string, k int, trace string, emit func(i int, item netsearch.RankedBatch) error) error {
	return f.rankStream(queries, alg, k, trace, func(i int, ranked []netsearch.RankedDB, err error) error {
		item := netsearch.RankedBatch{Ranked: ranked}
		if err != nil {
			item.Error = err.Error()
		}
		return emit(i, item)
	})
}

// rankStream is the front's one rank pipeline — Rank, RankBatch and
// RankBatchStream all run on it. It opens one "rankstream" exchange per
// slot and fuses inline, emitting each query's fused ranking (a fresh
// copy per position) or its error.
func (f *Front) rankStream(queries []string, alg string, k int, trace string, emit func(i int, ranked []netsearch.RankedDB, err error) error) error {
	if len(queries) == 0 {
		return httpapi.ErrEmptyBatch
	}
	sp := f.scatterSeconds.Start()
	defer sp.End()
	uniq, pos := dedupQueries(queries)
	if dups := len(queries) - len(uniq); dups > 0 {
		f.coalescedBatch.Add(int64(dups))
	}
	g := newGather(len(f.reps), len(uniq))
	readers := parallel.NewGroup(len(f.reps))
	for slot := range f.reps {
		slot := slot
		readers.Go(func() error {
			err := f.callSlot(slot, func(c *netsearch.Client) error {
				return c.RankDBsStream(uniq, alg, k, trace, func(i int, item netsearch.RankedBatch) error {
					return g.put(slot, i, item)
				})
			})
			// The scatter outcome travels to the fuser through the gather,
			// not the group: wait() hands it to exactly the items it hurt.
			g.finish(slot, err)
			return nil
		})
	}
	// However this returns, poison the gather (so still-running RPCs abort
	// at their next frame) and join the readers — no goroutine may outlive
	// the request that spawned it.
	defer func() {
		g.cancel()
		//lint:ignore errsink reader errors were already routed through gather.finish; Wait only joins
		readers.Wait()
	}()

	type fusedQuery struct {
		ranked []netsearch.RankedDB
		err    error
		done   bool
	}
	fz := newFuser(len(f.reps))
	partials := make([]netsearch.RankedBatch, len(f.reps))
	fused := make([]fusedQuery, len(uniq))
	for i := range queries {
		fq := &fused[pos[i]]
		if !fq.done {
			if pos[i] == len(uniq)-1 {
				// The last query's items arrive together with each slot's
				// end of stream, so join the readers first: the fuser then
				// wakes once, not once for the items and again for the join.
				// Reader errors reach it through the gather, not Wait.
				readers.Wait()
			}
			if err := g.wait(pos[i], partials); err != nil {
				if !errors.Is(err, netsearch.ErrStreamCanceled) {
					f.scatterErrors.Inc()
				}
				return err
			}
			fq.ranked, fq.err = fz.fuse(partials, k)
			fq.done = true
		}
		var ranked []netsearch.RankedDB
		if fq.err == nil {
			ranked = append([]netsearch.RankedDB(nil), fq.ranked...)
		}
		if err := emit(i, ranked, fq.err); err != nil {
			return err
		}
	}
	return nil
}

// fuser merges one query's per-slot partials into a single top-k. Its
// scratch — per-slot DocScore lists, the uniform weights, the fused-hit
// buffer — is recycled across the queries of a batch.
type fuser struct {
	lists   [][]selection.DocScore
	weights []float64
	fused   []selection.MergedHit
}

func newFuser(slots int) *fuser {
	fz := &fuser{lists: make([][]selection.DocScore, slots), weights: make([]float64, slots)}
	for i := range fz.weights {
		fz.weights[i] = 1
	}
	return fz
}

// fuse is the front's one fuse step: the fused ranking of one query's
// partials (one per slot), or the query's error. A slot's per-item
// refusal is deterministic — every slot tokenizes the same way — so any
// slot's report stands for all; it is classified back onto its service
// sentinel with the wire marker stripped. A query no slot ranked anything
// for is ErrNoModels.
func (fz *fuser) fuse(partials []netsearch.RankedBatch, k int) ([]netsearch.RankedDB, error) {
	var itemErr string
	total := 0
	for slot, it := range partials {
		if it.Error != "" {
			itemErr = it.Error
		}
		list := slices.Grow(fz.lists[slot][:0], len(it.Ranked))
		for j, r := range it.Ranked {
			list = append(list, selection.DocScore{Doc: j, Score: r.Score})
		}
		fz.lists[slot] = list
		total += len(it.Ranked)
	}
	switch {
	case itemErr != "":
		if err := classifyText(itemErr); err != nil {
			return nil, err
		}
		return nil, errors.New(itemErr)
	case total == 0:
		return nil, service.ErrNoModels
	}
	var err error
	fz.fused, err = selection.MergeWeightedInto(fz.fused[:0], fz.lists, fz.weights, k)
	if err != nil {
		// Unreachable by construction (lists and weights are parallel);
		// surfaced rather than swallowed all the same.
		return nil, fmt.Errorf("cluster: fuse: %w", err)
	}
	ranked := make([]netsearch.RankedDB, len(fz.fused))
	for j, h := range fz.fused {
		ranked[j] = netsearch.RankedDB{Name: partials[h.DB].Ranked[h.Doc].Name, Score: h.Score}
	}
	return ranked, nil
}
