package telemetry

import (
	"math"
	"strconv"
	"sync"
)

// Every histogram shares one log-linear layout over seconds: a bucket
// [0, 1µs], then each power of two from 1µs to 2^23µs (~8.39s) split into
// histSub equal-width buckets, none wider than 10% of its lower bound —
// the stated error of every quantile estimate. Slower values land in the
// +Inf bucket.
const (
	histMin     = 1e-6 // first bucket's upper bound, in seconds
	histSub     = 10   // linear sub-buckets per power of two
	histOctaves = 23   // powers of two above histMin
	numBounds   = 1 + histSub*histOctaves
)

// bounds are the layout's finite bucket upper bounds, ascending, each
// rounded to the short decimal the binary arithmetic blurs so `le`
// labels read cleanly. Shared read-only.
var bounds = func() []float64 {
	b := []float64{histMin}
	for e := 0; e < histOctaves; e++ {
		for j := 1; j <= histSub; j++ {
			v, _ := strconv.ParseFloat(strconv.FormatFloat(math.Ldexp(histMin*(1+float64(j)/histSub), e), 'g', 10, 64), 64)
			b = append(b, v)
		}
	}
	return b
}()

// bucketOf returns the index of the bucket holding v: the i with
// bounds[i-1] < v <= bounds[i], or numBounds for the +Inf bucket.
func bucketOf(v float64) int {
	switch {
	case v <= histMin:
		return 0
	case v > bounds[numBounds-1]:
		return numBounds
	}
	// v/histMin = frac·2^exp with frac in [0.5,1): octave exp-1, and the
	// mantissa 2·frac in [1,2) picks the sub-bucket. That can land one off
	// at an exact (inclusive) bound or through rounding; the bounds decide.
	frac, exp := math.Frexp(v / histMin)
	i := 1 + (exp-1)*histSub + int((2*frac-1)*histSub)
	if v <= bounds[i-1] {
		i--
	} else if v > bounds[i] {
		i++
	}
	return i
}

// Histogram is the repository's one quantile estimator: registry latency
// metrics, admission's p99 and loadgen's percentiles. Observing takes one
// short mutex hold and allocates nothing. The zero value is an empty
// histogram outside any registry, whose spans are inert (no clock).
type Histogram struct {
	reg *Registry // clock for spans; nil outside a registry

	mu     sync.Mutex
	counts [numBounds + 1]int64 // last is +Inf
	sum    float64
	n      int64
}

// Observe records one value (for latency histograms, seconds). NaN is
// ignored.
//
//lint:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := bucketOf(v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram: totals,
// estimated quantiles, and the per-bucket cumulative counts Prometheus
// expects.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Bounds are the bucket upper bounds; Cumulative[i] counts
	// observations <= Bounds[i]. Count includes the +Inf overflow.
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []int64   `json:"cumulative,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	counts, sum, n := h.counts, h.sum, h.n
	h.mu.Unlock()

	snap := HistogramSnapshot{Count: n, Sum: sum, Bounds: bounds}
	snap.Cumulative = make([]int64, numBounds)
	var cum int64
	for i := range snap.Cumulative {
		cum += counts[i]
		snap.Cumulative[i] = cum
	}
	snap.P50 = quantile(&counts, n, 0.50)
	snap.P95 = quantile(&counts, n, 0.95)
	snap.P99 = quantile(&counts, n, 0.99)
	return snap
}

// Quantile estimates the q-quantile (0 < q < 1) of the observations; see
// QuantileOf.
func (h *Histogram) Quantile(q float64) float64 { return QuantileOf(q, h) }

// QuantileOf estimates the q-quantile (0 < q < 1) of the histograms'
// pooled observations by interpolating inside the bucket holding the
// target rank, as Prometheus's histogram_quantile does. That bucket also
// holds the exact nearest-rank value, so the estimate is off by at most
// its width. The +Inf bucket clamps to the top bound; no observations
// estimate 0; nil histograms contribute nothing.
func QuantileOf(q float64, hs ...*Histogram) float64 {
	var counts [numBounds + 1]int64
	var n int64
	for _, h := range hs {
		if h == nil {
			continue
		}
		h.mu.Lock()
		for i, c := range &h.counts {
			counts[i] += c
		}
		n += h.n
		h.mu.Unlock()
	}
	return quantile(&counts, n, q)
}

func quantile(counts *[numBounds + 1]int64, n int64, q float64) float64 {
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= numBounds {
			// +Inf bucket: no finite upper bound to interpolate toward.
			return bounds[numBounds-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := min(max((rank-float64(prev))/float64(c), 0), 1)
		return lo + (bounds[i]-lo)*frac
	}
	return bounds[numBounds-1]
}
