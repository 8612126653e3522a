package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, made by the benchmark from outside
// the layer. Parent names the span whose work this call stands for; the
// calls themselves run one after another, not nested, so a layer's self
// time is derived per request by subtracting its children's durations.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0: a root
	Req    int64         `json:"req"`    // request (or sampling run) id
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // offset from the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Flag   int           `json:"flag,omitempty"` // layer-specific: shard, cache miss
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Clients record into
// their own buffers; spans from goroutines the benchmark does not own
// (the netsearch servers' calls into the indexes) go through a mutex.
// While off, record is a single atomic load.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64
	nextRq atomic.Int64

	mu     sync.Mutex
	shared []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) req() int64 { return t.nextRq.Add(1) }

// spanBuf is one goroutine's private span buffer.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf { return &spanBuf{t: t} }

// reserve returns a span id before the span's call, so that calls made
// underneath it can name it as their parent; 0 while tracing is off.
func (t *tracer) reserve() int64 {
	if !t.on.Load() {
		return 0
	}
	return t.nextID.Add(1)
}

// record appends a span and returns its id (0 while tracing is off).
func (b *spanBuf) record(name string, req, parent int64, start, end time.Time, flag int) int64 {
	return b.recordID(b.t.reserve(), name, req, parent, start, end, flag)
}

// recordID appends a span under a reserved id.
func (b *spanBuf) recordID(id int64, name string, req, parent int64, start, end time.Time, flag int) int64 {
	if id == 0 {
		return 0
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.t.epoch), End: end.Sub(b.t.epoch), Flag: flag})
	return id
}

// recordShared is record for goroutines without a buffer of their own.
func (t *tracer) recordShared(name string, req, parent int64, start, end time.Time) {
	id := t.reserve()
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.shared = append(t.shared, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// collect merges the buffers with the shared spans, ordered by id.
func (t *tracer) collect(bufs ...*spanBuf) []span {
	t.mu.Lock()
	all := append([]span(nil), t.shared...)
	t.mu.Unlock()
	for _, b := range bufs {
		all = append(all, b.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// spanIndex groups spans by name and by parent, for deriving self times.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// medianUS is the median duration, in microseconds, of the named spans;
// 0 when there are none.
func (ix *spanIndex) medianUS(name string) float64 {
	spans := ix.byName[name]
	v := make([]float64, len(spans))
	for i, s := range spans {
		v[i] = us(s.dur())
	}
	return median(v)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeTrace writes the span file and the per-layer table of a traced
// run. It runs once, after the run has finished measuring.
func writeTrace(dir, workload string, seed uint64, spans []span, layers []metricValue) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// One pair of files per workload, overwritten by its next traced run,
	// so repeated runs do not pile up span files.
	base := filepath.Join(dir, workload)
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(base + ".layers.txt")
	if err != nil {
		return err
	}
	tw := bufio.NewWriter(t)
	fmt.Fprintf(tw, "# %s seed %d: %d spans; per-layer metrics\n", workload, seed, len(spans))
	for _, m := range layers {
		fmt.Fprintf(tw, "%-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if err := tw.Flush(); err != nil {
		t.Close()
		return err
	}
	return t.Close()
}
