package core

import (
	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/randx"
)

// TermSelector chooses the next query term (step 5a of the algorithm).
// Implementations receive the learned model so far and the set of terms
// already used as queries; they must not return a used term.
type TermSelector interface {
	// Name identifies the strategy in reports (Figure 3, Table 3 rows).
	Name() string
	// Next returns the next query term, or ok=false when the strategy has
	// no eligible term left.
	Next(learned *langmodel.Model, used map[string]bool, rng *randx.Source) (term string, ok bool)
}

// Vocabulary is an indexable term list a query term can be drawn from
// uniformly at random. *langmodel.Model satisfies it (in first-seen
// order); so does any fixed list, such as the sorted union of learned
// vocabularies a selection service keeps.
type Vocabulary interface {
	VocabSize() int
	TermAt(i int) string
}

// Eligible implements the paper's query-term requirements (§4.4): a term
// "could not be a number and was required to be 3 or more characters
// long". Terms already issued as queries are also ineligible — re-running
// a query returns the same documents and learns nothing.
func Eligible(term string, used map[string]bool) bool {
	if len(term) < 3 || analysis.IsNumber(term) || used[term] {
		return false
	}
	return true
}

// RandomLLM selects query terms uniformly at random from the learned
// language model — the paper's baseline and empirically best strategy
// (§5.2). The zero value is ready to use.
type RandomLLM struct{}

// Name implements TermSelector.
func (RandomLLM) Name() string { return "random-llm" }

// Next implements TermSelector.
func (RandomLLM) Next(learned *langmodel.Model, used map[string]bool, rng *randx.Source) (string, bool) {
	return randomEligible(learned, used, rng)
}

// RandomOLM selects query terms uniformly at random from an *other*
// language model — typically a complete reference model such as the
// TREC-123 model the paper uses (§5.2, "olm"). Terms the sample database
// does not index make the query fail, which is why olm needs about twice
// as many queries (Table 3).
type RandomOLM struct {
	// Other is the reference model terms are drawn from.
	Other *langmodel.Model
}

// Name implements TermSelector.
func (s RandomOLM) Name() string { return "random-olm" }

// Next implements TermSelector.
func (s RandomOLM) Next(_ *langmodel.Model, used map[string]bool, rng *randx.Source) (string, bool) {
	if s.Other == nil {
		return "", false
	}
	return randomEligible(s.Other, used, rng)
}

// FrequencyLLM selects the highest-ranked unused term of the learned model
// under a frequency metric: df, ctf, or avg-tf (§5.2's "df, llm",
// "ctf, llm" and "avg-tf, llm" strategies).
type FrequencyLLM struct {
	// Metric orders candidate terms; the highest unused eligible one wins.
	Metric langmodel.RankMetric
}

// Name implements TermSelector.
func (s FrequencyLLM) Name() string { return s.Metric.String() + "-llm" }

// Next implements TermSelector.
func (s FrequencyLLM) Next(learned *langmodel.Model, used map[string]bool, _ *randx.Source) (string, bool) {
	best, ok := "", false
	var bestV float64
	learned.Range(func(t string, st langmodel.TermStats) bool {
		if !Eligible(t, used) {
			return true
		}
		v := metricValue(s.Metric, st)
		if !ok || v > bestV || (v == bestV && t < best) {
			best, bestV, ok = t, v, true
		}
		return true
	})
	return best, ok
}

func metricValue(m langmodel.RankMetric, st langmodel.TermStats) float64 {
	switch m {
	case langmodel.ByCTF:
		return float64(st.CTF)
	case langmodel.ByAvgTF:
		return st.AvgTF()
	default:
		return float64(st.DF)
	}
}

// randomEligible draws a uniform random eligible term from the
// vocabulary.
// Rejection sampling over the model's insertion-ordered vocabulary keeps
// draws O(1) in the common case, with a linear fallback so exhaustion
// terminates. Both paths are deterministic for a given rng state.
func randomEligible(m Vocabulary, used map[string]bool, rng *randx.Source) (string, bool) {
	if m == nil || m.VocabSize() == 0 {
		return "", false
	}
	size := m.VocabSize()
	for attempts := 0; attempts < 30; attempts++ {
		t := m.TermAt(rng.Intn(size))
		if Eligible(t, used) {
			return t, true
		}
	}
	// Dense fallback: collect remaining eligible terms and pick one.
	var candidates []string
	for i := 0; i < size; i++ {
		if t := m.TermAt(i); Eligible(t, used) {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	return candidates[rng.Intn(len(candidates))], true
}
