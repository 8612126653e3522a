package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span times one operation into a histogram against its registry's
// clock: Histogram.Start, then End. A span is a plain value owned by the
// goroutine that started it, so timing allocates nothing.
type Span struct {
	h     *Histogram
	start time.Time
	done  bool
}

// Start begins a span whose duration End observes into h; inert outside
// a registry (no clock).
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: h.reg.now()}
}

// End observes the span's elapsed time (per the registry clock) into its
// histogram and returns the duration. Only the first End observes.
func (s *Span) End() time.Duration {
	if s.h == nil || s.h.reg == nil {
		return 0
	}
	d := s.h.reg.now().Sub(s.start)
	if !s.done {
		s.done = true
		s.h.Observe(d.Seconds())
	}
	return d
}

// Timer returns a stop function observing the elapsed time into the named
// histogram — the one-line defer idiom off the request path (it allocates):
//
//	defer reg.Timer("service_sample_seconds")()
func (r *Registry) Timer(name string) func() time.Duration {
	sp := r.Histogram(name).Start()
	return sp.End
}

// ManualClock is a settable test clock: plug Now into Registry.SetClock
// and advance it explicitly to make every span duration deterministic.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock starts a clock at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the clock's current instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TraceIDs hands out sequential trace IDs ("req-000001", …). Sequential
// IDs are deliberately boring: they are deterministic (golden tests can
// assert them), collision-free within a process, and trivially greppable
// in logs. Safe for concurrent use.
type TraceIDs struct {
	prefix string
	n      atomic.Uint64
}

// NewTraceIDs returns a generator whose IDs start with prefix.
func NewTraceIDs(prefix string) *TraceIDs {
	return &TraceIDs{prefix: prefix}
}

// Next returns the next ID.
func (t *TraceIDs) Next() string {
	return fmt.Sprintf("%s-%06d", t.prefix, t.n.Add(1))
}
