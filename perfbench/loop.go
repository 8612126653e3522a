package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// meterSlice is the length of the slices the timed window is cut into.
// qps and cpu_us_per_query are medians over the slices. A stall — a
// descheduled CPU, a collection — lands in few of them, so the median
// reads the typical rate rather than the stall count of the run.
const meterSlice = 100 * time.Millisecond

// op is one closed-loop operation of client c: it returns how many
// queries it carried and how many of them failed.
type op func(c int) (queries, failed int)

// opSample is one completed operation.
type opSample struct {
	done    time.Duration // completion, as an offset from the window start
	lat     time.Duration
	queries int
}

// loopResult is what a closed-loop window measured.
type loopResult struct {
	window    time.Duration
	samples   []opSample
	attempted int
	failed    int
	ticks     []tick // meter readings at the slice boundaries
}

type tick struct {
	at  time.Duration
	cpu time.Duration
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// closedLoop runs clients goroutines, each issuing its next operation as
// soon as the previous one returns, until window has passed. An operation
// in flight at the deadline completes and counts. Each operation is timed
// from its own start: in a closed loop nothing is due before the previous
// reply, so there is no schedule to fall behind. A meter goroutine reads
// the process CPU time at every slice boundary.
func closedLoop(clients int, window time.Duration, do op) *loopResult {
	res := &loopResult{window: window}
	per := make([][]opSample, clients)
	att := make([]int, clients)
	fail := make([]int, clients)
	start := time.Now()
	deadline := start.Add(window)

	var wg sync.WaitGroup
	wg.Add(1)
	//lint:ignore baregoroutine the meter and the clients are a fixed set of goroutines joined by wg before closedLoop returns
	go func() { // meter
		defer wg.Done()
		res.ticks = append(res.ticks, tick{0, cpuTime()})
		for i := 1; time.Duration(i)*meterSlice <= window; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * meterSlice)))
			res.ticks = append(res.ticks, tick{time.Since(start), cpuTime()})
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//lint:ignore baregoroutine one goroutine per closed-loop client, joined by wg before closedLoop returns
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				n, f := do(c)
				t1 := time.Now()
				att[c] += n
				fail[c] += f
				per[c] = append(per[c], opSample{done: t1.Sub(start), lat: t1.Sub(t0), queries: n})
			}
		}(c)
	}
	wg.Wait()
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		res.attempted += att[c]
		res.failed += fail[c]
	}
	return res
}

// queries is the number of queries completed in the window.
func (r *loopResult) queries() int {
	n := 0
	for _, s := range r.samples {
		n += s.queries
	}
	return n
}

// sliceRates returns, per meter slice, queries per second and CPU
// microseconds per query. Slices that completed no query are skipped.
func (r *loopResult) sliceRates() (qps, cpuPerQ []float64) {
	counts := make([]int, len(r.ticks))
	for _, s := range r.samples {
		i := sort.Search(len(r.ticks), func(i int) bool { return r.ticks[i].at > s.done })
		if i > 0 && i < len(r.ticks) {
			counts[i] += s.queries
		}
	}
	for i := 1; i < len(r.ticks); i++ {
		if counts[i] == 0 {
			continue
		}
		dt := (r.ticks[i].at - r.ticks[i-1].at).Seconds()
		qps = append(qps, float64(counts[i])/dt)
		cpuPerQ = append(cpuPerQ, float64((r.ticks[i].cpu-r.ticks[i-1].cpu).Microseconds())/float64(counts[i]))
	}
	return qps, cpuPerQ
}

// cpuShare is the process's CPU time over the window's wall time: how
// many CPUs it kept busy.
func (r *loopResult) cpuShare() float64 {
	first, last := r.ticks[0], r.ticks[len(r.ticks)-1]
	return (last.cpu - first.cpu).Seconds() / (last.at - first.at).Seconds()
}

// latenciesUS returns every operation's latency in microseconds, sorted.
func (r *loopResult) latenciesUS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values, which it sorts in place.
func median(values []float64) float64 {
	sort.Float64s(values)
	return quantile(values, 0.5)
}
