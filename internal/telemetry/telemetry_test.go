package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("inflight")
	g.Add(2)
	g.Add(-1)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(3)
	r.Histogram("c").Observe(0.5)
	r.SetClock(nil)
	sp := r.Histogram("d").Start()
	if sp.End() != 0 {
		t.Fatal("span on a nil registry measured time")
	}
	r.Timer("e")()
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote prometheus output: %q", buf.String())
	}
}

func TestBinderExposesOnFirstUse(t *testing.T) {
	r := NewRegistry()
	b := r.Bind()
	c, g, h := b.Counter("c_total"), b.Gauge("g"), r.Histogram("h_seconds")
	idle := b.Counter("idle_total")
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("bound but unused instruments exposed: %+v", snap)
	}
	if b.Counter("c_total") != c {
		t.Fatal("binding one name twice gave different counters")
	}
	if _, ok := r.Snapshot().Histograms["h_seconds"]; ok {
		t.Error("a histogram with no observation is exposed")
	}
	c.Inc()
	g.Add(1)
	g.Add(-1) // back to zero, but it has been used
	h.Observe(0.1)
	if r.Counter("idle_total") != idle {
		t.Fatal("looking up a bound name gave a different counter")
	}
	snap := r.Snapshot()
	if snap.Counters["c_total"] != 1 {
		t.Errorf("counters = %+v, want c_total 1", snap.Counters)
	}
	if v, ok := snap.Gauges["g"]; !ok || v != 0 {
		t.Errorf("gauges = %+v, want g exposed at 0", snap.Gauges)
	}
	if _, ok := snap.Histograms["h_seconds"]; !ok {
		t.Error("an observed histogram is not exposed")
	}
	if v, ok := snap.Counters["idle_total"]; !ok || v != 0 || idle.Value() != 0 {
		t.Errorf("a counter looked up by name must be exposed at 0, got %v %v", v, ok)
	}
	var nilReg *Registry
	nilReg.Bind().Counter("x").Inc() // discard, no panic
}

func TestCountersAreConcurrencySafe(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//lint:ignore baregoroutine bounded test fan-out joined via wg below
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("n_total").Inc()
				r.Histogram("h_seconds").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h_seconds").Snapshot().Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(Histogram)
	// 100 observations at 0.5s: every quantile interpolates inside the
	// bucket holding 0.5.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if p50 := h.Quantile(0.5); !withinBucket(p50, 0.5) {
		t.Fatalf("p50 = %v, want within one bucket of 0.5", p50)
	}
	// Push 100 more at 1.5s: the median sits between the two clusters and
	// the p99 in 1.5's bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if p50 := h.Quantile(0.5); p50 < 0.45 || p50 > 1.65 {
		t.Fatalf("p50 after shift = %v, want in [0.45,1.65]", p50)
	}
	if p99 := h.Quantile(0.99); !withinBucket(p99, 1.5) {
		t.Fatalf("p99 = %v, want within one bucket of 1.5", p99)
	}
	// Overflow clamps to the top finite bound.
	h2 := new(Histogram)
	h2.Observe(100)
	if got, top := h2.Quantile(0.5), bounds[len(bounds)-1]; got != top {
		t.Fatalf("overflow quantile = %v, want clamp to %v", got, top)
	}
}

// withinBucket reports whether an estimate is within one bucket width of
// the value v.
func withinBucket(got, v float64) bool {
	i := bucketOf(v)
	width := bounds[i]
	if i > 0 {
		width -= bounds[i-1]
	}
	return math.Abs(got-v) <= width
}

func TestHistogramLayout(t *testing.T) {
	if bounds[0] != 1e-6 {
		t.Errorf("first bound = %v, want 1µs", bounds[0])
	}
	if top := bounds[len(bounds)-1]; top < 8.388608 {
		t.Errorf("top bound = %vs, want at least the old 8.388608s", top)
	}
	for i := 1; i < len(bounds); i++ {
		if w := bounds[i] - bounds[i-1]; w <= 0 || w > 0.1*bounds[i-1]*(1+1e-12) {
			t.Fatalf("bucket %d (%v, %v] is %.3f%% of its lower bound, want (0, 10%%]",
				i, bounds[i-1], bounds[i], 100*w/bounds[i-1])
		}
	}
	// Property: a value lands in the bucket whose bounds enclose it —
	// checked at every bound, just either side of it, and at random values
	// spread log-uniformly over the layout and past both ends.
	check := func(v float64) {
		i := bucketOf(v)
		if i < len(bounds) && v > bounds[i] {
			t.Fatalf("bucketOf(%v) = %d, but bound %v < v", v, i, bounds[i])
		}
		if i > 0 && v <= bounds[i-1] {
			t.Fatalf("bucketOf(%v) = %d, but v <= lower bound %v", v, i, bounds[i-1])
		}
	}
	for _, b := range bounds {
		check(b)
		check(math.Nextafter(b, 0))
		check(math.Nextafter(b, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100000; n++ {
		check(math.Exp2(rng.Float64()*30 - 23)) // ~0.1µs .. ~128s
	}
	for _, v := range []float64{-1, 0, 1e-9, 1e3, math.Inf(1)} {
		check(v)
	}
}

func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	// A known sample: log-normal latencies around 200µs. Every estimated
	// quantile must fall within one bucket width of the exact nearest-rank
	// value.
	rng := rand.New(rand.NewSource(7))
	h := new(Histogram)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = 200e-6 * math.Exp(rng.NormFloat64())
		h.Observe(sample[i])
	}
	sort.Float64s(sample)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := sample[int(math.Ceil(q*float64(len(sample))))-1]
		if got := h.Quantile(q); !withinBucket(got, exact) {
			t.Errorf("q%.3f: estimate %v, exact %v: off by more than the bucket width", q, got, exact)
		}
	}
}

func TestHistogramNilAndNaN(t *testing.T) {
	var h *Histogram
	h.Observe(1) // no panic
	if h.Quantile(0.5) != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram must report zero")
	}
	real := new(Histogram)
	if real.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	real.Observe(math.NaN())
	if real.Snapshot().Count != 0 {
		t.Error("NaN observation was recorded")
	}
}

func TestQuantileOfMergesGenerations(t *testing.T) {
	// The rotating-generations pattern: a slow episode in one generation
	// dominates the merged p99 until that generation is dropped.
	old, cur := new(Histogram), new(Histogram)
	for i := 0; i < 16; i++ {
		old.Observe(1) // slow episode
		cur.Observe(1e-3)
	}
	if got := QuantileOf(0.99, old, cur, nil); !withinBucket(got, 1) {
		t.Fatalf("merged p99 = %v, want the slow episode's ~1s", got)
	}
	if got := QuantileOf(0.99, new(Histogram), cur); !withinBucket(got, 1e-3) {
		t.Errorf("p99 without the slow generation = %v, want ~1ms", got)
	}
}

func TestSpanUsesInjectedClock(t *testing.T) {
	r := NewRegistry()
	clk := NewManualClock(time.Unix(1000, 0))
	r.SetClock(clk.Now)
	sp := r.Histogram("op_seconds").Start()
	clk.Advance(250 * time.Millisecond)
	if d := sp.End(); d != 250*time.Millisecond {
		t.Fatalf("span duration = %v, want 250ms", d)
	}
	// Second End must not double-observe.
	sp.End()
	snap := r.Histogram("op_seconds").Snapshot()
	if snap.Count != 1 {
		t.Fatalf("observations = %d, want 1", snap.Count)
	}
	if snap.Sum != 0.25 {
		t.Fatalf("sum = %v, want 0.25", snap.Sum)
	}
	// A standalone histogram has no clock: its spans are inert.
	standalone := new(Histogram).Start()
	if standalone.End() != 0 {
		t.Error("span on a registry-less histogram measured time")
	}
}

func TestSpanAllocatesNothing(t *testing.T) {
	h := NewRegistry().Histogram("op_seconds")
	c := NewRegistry().Counter("n_total")
	if n := testing.AllocsPerRun(100, func() {
		sp := h.Start()
		c.Inc()
		sp.End()
	}); n != 0 {
		t.Errorf("timing a span allocates %v times, want 0", n)
	}
}

func TestSnapshotJSONIsDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		clk := NewManualClock(time.Unix(0, 0))
		r.SetClock(clk.Now)
		// Insertion order differs run to run only via map iteration;
		// registering in two different orders must not matter.
		r.Counter(`b_total{db="x"}`).Add(2)
		r.Counter("a_total").Inc()
		r.Gauge("g").Set(-4)
		h := r.Histogram("h_seconds")
		h.Observe(0.05)
		h.Observe(0.5)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(a), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["a_total"] != 1 || snap.Counters[`b_total{db="x"}`] != 2 {
		t.Fatalf("counters wrong: %+v", snap.Counters)
	}
	if snap.Histograms["h_seconds"].Count != 2 {
		t.Fatalf("histogram count wrong: %+v", snap.Histograms["h_seconds"])
	}
}

func TestTraceIDsAreSequential(t *testing.T) {
	ids := NewTraceIDs("req")
	if a := ids.Next(); a != "req-000001" {
		t.Fatalf("first id = %q", a)
	}
	if b := ids.Next(); b != "req-000002" {
		t.Fatalf("second id = %q", b)
	}
}

func TestNewLoggerKeyValueOutput(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo, false)
	lg.Info("sample start", TraceKey, "req-000007", "db", "wsj88")
	line := buf.String()
	for _, want := range []string{"msg=\"sample start\"", "trace=req-000007", "db=wsj88"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "time=") {
		t.Fatalf("log line %q contains a timestamp despite includeTime=false", line)
	}
	lg.Debug("below level")
	if strings.Contains(buf.String(), "below level") {
		t.Fatal("debug line emitted at info level")
	}
}
