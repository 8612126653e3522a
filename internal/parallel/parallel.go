// Package parallel is the experiment suite's worker pool: a minimal
// errgroup-style fan-out helper with a concurrency cap and *ordered*
// result collection.
//
// Every experiment in this repository is a set of independent sampling
// runs, each fully determined by its own seed (corpora × strategies ×
// seeds). That independence is what makes parallelism safe: Map runs the
// work function concurrently but returns results in input order, so a
// parallel suite produces byte-identical output to the sequential path.
// Determinism is a documented invariant of core.Sample and the golden
// tests in internal/experiments assert it end to end.
//
// A workers value of 1 (or a single item) takes a purely sequential fast
// path with no goroutines at all, which keeps single-threaded benchmarks
// comparable with the pre-parallel trajectory.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// metricsReg is the package's optional telemetry sink. The pool is shared
// infrastructure (experiment suite, service fan-out), so instrumentation
// is process-wide rather than per-call: SetMetrics installs a registry
// and every Map/ForN/Group task from then on is counted. When unset the
// hot path pays a single atomic load per Map call.
var metricsReg atomic.Pointer[telemetry.Registry]

// SetMetrics installs the registry that receives pool utilization
// (parallel_busy_workers gauge), task counts (parallel_tasks_total,
// parallel_task_errors_total) and task latency (parallel_task_seconds
// histogram). nil disables instrumentation.
func SetMetrics(reg *telemetry.Registry) { metricsReg.Store(reg) }

// instrument wraps fn with the installed registry's instruments; it
// returns fn unchanged when no registry is installed.
func instrument[T, R any](fn func(i int, item T) (R, error)) func(i int, item T) (R, error) {
	reg := metricsReg.Load()
	if reg == nil {
		return fn
	}
	busy := reg.Gauge("parallel_busy_workers")
	tasks := reg.Counter("parallel_tasks_total")
	fails := reg.Counter("parallel_task_errors_total")
	seconds := reg.Histogram("parallel_task_seconds")
	return func(i int, item T) (R, error) {
		busy.Add(1)
		sp := seconds.Start()
		out, err := fn(i, item)
		sp.End()
		busy.Add(-1)
		tasks.Inc()
		if err != nil {
			fails.Inc()
		}
		return out, err
	}
}

// Workers resolves a requested concurrency level: n > 0 is used as given,
// anything else (0, negative) means "one worker per available CPU"
// (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i, items[i]) for every item with at most workers concurrent
// invocations and returns the results in input order. All items are
// processed even when some fail; the returned error is the lowest-index
// error, so a parallel Map reports the same error a sequential loop would
// have hit first. workers <= 1 or len(items) <= 1 runs inline without
// goroutines.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	fn = instrument(fn)
	out := make([]R, len(items))
	errs := make([]error, len(items))
	if workers = Workers(workers); workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 || len(items) <= 1 {
		for i, item := range items {
			out[i], errs[i] = fn(i, item)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					out[i], errs[i] = fn(i, items[i])
				}
			}()
		}
		for i := range items {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ForN runs fn(i) for i in [0, n) with at most workers concurrent
// invocations; the returned error is the lowest-index one.
func ForN(workers, n int, fn func(i int) error) error {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	_, err := Map(workers, idx, func(i int, _ int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// Group is an errgroup-style pool for heterogeneous tasks whose results
// are collected by the callers themselves (e.g. pre-building several
// corpora). Tasks submitted with Go run with at most the configured
// concurrency; Wait blocks until all of them finish and returns the first
// error in submission order.
type Group struct {
	sem  chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error // indexed by submission order
	n    int
}

// NewGroup returns a Group running at most workers tasks at once
// (workers <= 0 means GOMAXPROCS).
func NewGroup(workers int) *Group {
	return &Group{sem: make(chan struct{}, Workers(workers))}
}

// Go submits a task. It never blocks the caller beyond bookkeeping; the
// task itself waits for a worker slot.
func (g *Group) Go(fn func() error) {
	inner := fn
	wrapped := instrument(func(int, struct{}) (struct{}, error) { return struct{}{}, inner() })
	fn = func() error { _, err := wrapped(0, struct{}{}); return err }
	g.mu.Lock()
	i := g.n
	g.n++
	g.errs = append(g.errs, nil)
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.sem <- struct{}{}
		defer func() { <-g.sem }()
		err := fn()
		g.mu.Lock()
		g.errs[i] = err
		g.mu.Unlock()
	}()
}

// Wait blocks until every submitted task has finished and returns the
// first error in submission order (nil if none failed).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
