package selection

// Compiled selection snapshots: the zero-allocation serving form of a set
// of language models. The published selection algorithms (CORI, GlOSS)
// consult only precomputed per-database statistics — df per term, docs,
// collection size — never a live index, so a frozen model set can be
// compiled once into flat arrays and served lock-free forever after:
//
//   - every term across every model is interned into one dictionary, so a
//     query is resolved to integer term ids once and scored by id;
//   - per-term document frequencies live in a CSR postings layout
//     (term id -> sorted (database, df) pairs) instead of per-model hash
//     maps;
//   - the CORI collection statistics that are query-independent (avg_cw,
//     the per-term icf log factor) are computed at compile time.
//
// Scoring never allocates: callers pass in the id, score and ranking
// buffers, which a serving layer recycles through a sync.Pool.
//
// Equivalence contract: for CORI and both GlOSS estimators (at any
// threshold), a Compiled set produces bit-for-bit the float64 scores of
// the map-based Algorithm.Scores over the same models in the same order.
// The arithmetic below deliberately mirrors selection.go expression by
// expression — same operand grouping, same accumulation order (query-term
// major, database minor) — because IEEE 754 addition is not associative
// and "almost the same" would break ranking golden tests on ties.

import (
	"math"
	"slices"

	"repro/internal/langmodel"
)

// Compiled is an immutable, flat compilation of one model set. It is safe
// for unsynchronized concurrent use; compile a new one (and swap pointers)
// when the underlying models change.
type Compiled struct {
	n   int
	ids map[string]int32
	// overlay holds terms interned after the base compile (by Patch); it is
	// checked after ids and kept small relative to it. terms is the full
	// dictionary in id order (base then overlay) — the iteration order the
	// snapshot codec and the patcher need, since map order is randomized.
	overlay map[string]int32
	terms   []string
	docs    []float64 // per-database document counts
	cw      []float64 // per-database collection sizes (total ctf)

	avgCW float64   // mean collection size, the CORI cw normalizer
	idf   []float64 // per-term CORI I component (precomputed icf log factor)

	// CSR postings: term id t's (database, df) pairs sit in
	// postDB/postDF[postStart[t]:postStart[t+1]], databases ascending.
	postStart []int32
	postDB    []int32
	postDF    []float64
}

// Compile flattens models into a Compiled set. Model order is preserved:
// database i in every scoring call is models[i]. Terms are interned in
// first-encounter order (model order, then each model's insertion order),
// which is deterministic for deterministic inputs.
//
// One Range pass over the models interns terms and records each posting's
// term id and df in flat slices sized to the total posting count; a
// counting sort over the term ids then lays out the CSR rows. Models are
// scattered in index order, so every row lists its databases ascending.
func Compile(models []*langmodel.Model) *Compiled {
	n := len(models)
	postings, widest := 0, 0
	for _, m := range models {
		postings += m.VocabSize()
		widest = max(widest, m.VocabSize())
	}
	// The union vocabulary is at least the widest model's, and usually not
	// much more: presizing the dictionary to it skips the early rehashes
	// without reserving room for every posting.
	c := &Compiled{
		n:     n,
		ids:   make(map[string]int32, widest),
		terms: make([]string, 0, widest),
		docs:  make([]float64, n),
		cw:    make([]float64, n),
	}
	flatTerm := make([]int32, 0, postings)
	flatDF := make([]float64, 0, postings)
	var rowLen []int32
	for i, m := range models {
		c.docs[i] = float64(m.Docs())
		c.cw[i] = float64(m.TotalCTF())
		m.Range(func(t string, st langmodel.TermStats) bool {
			id, ok := c.ids[t]
			if !ok {
				id = int32(len(c.terms))
				c.ids[t] = id
				c.terms = append(c.terms, t)
				rowLen = append(rowLen, 0)
			}
			rowLen[id]++
			flatTerm = append(flatTerm, id)
			flatDF = append(flatDF, float64(st.DF))
			return true
		})
	}

	// avg_cw, mirroring CORI.Scores: sum in model order, divide, floor at 1.
	var avgCW float64
	for _, m := range models {
		avgCW += float64(m.TotalCTF())
	}
	if n > 0 {
		avgCW /= float64(n)
	}
	if avgCW == 0 {
		avgCW = 1
	}
	c.avgCW = avgCW

	// Per-term CORI I component. cf is the number of databases whose model
	// contains the term — the posting count, never zero for interned terms.
	// Query terms outside the dictionary score with idf 0, exactly as the
	// map-based path treats a term no model contains.
	terms := len(c.terms)
	c.idf = make([]float64, terms)
	for id, cf := range rowLen {
		c.idf[id] = math.Log((float64(n)+0.5)/float64(cf)) / math.Log(float64(n)+1.0)
	}

	// Counting sort into CSR: prefix-sum the row lengths into row starts,
	// then scatter the postings, reusing rowLen as each row's fill cursor.
	c.postStart = make([]int32, terms+1)
	for id, l := range rowLen {
		c.postStart[id+1] = c.postStart[id] + l
		rowLen[id] = c.postStart[id]
	}
	c.postDB = make([]int32, postings)
	c.postDF = make([]float64, postings)
	k := 0
	for i, m := range models {
		for end := k + m.VocabSize(); k < end; k++ {
			id := flatTerm[k]
			pos := rowLen[id]
			c.postDB[pos] = int32(i)
			c.postDF[pos] = flatDF[k]
			rowLen[id]++
		}
	}
	return c
}

// NumDBs returns the number of compiled databases.
func (c *Compiled) NumDBs() int { return c.n }

// VocabSize returns the number of interned terms across all models. After
// a Patch this may include terms whose last posting was removed; they keep
// an empty posting row, which every scorer treats exactly like a term
// outside the dictionary.
func (c *Compiled) VocabSize() int { return len(c.terms) }

// Postings returns the total number of (term, database) statistics pairs.
func (c *Compiled) Postings() int { return len(c.postDB) }

// TermAt returns the interned term with id i, 0 <= i < VocabSize().
func (c *Compiled) TermAt(i int) string { return c.terms[i] }

// ID resolves a term to its interned id; ok is false for terms no model
// contains.
func (c *Compiled) ID(term string) (int32, bool) {
	if id, ok := c.ids[term]; ok {
		return id, true
	}
	id, ok := c.overlay[term]
	return id, ok
}

// AppendIDs resolves terms to interned ids, appending one id per term to
// dst (unknown terms append -1 — they still count toward CORI's query
// length). The caller recycles dst; no allocations beyond dst growth.
//
//lint:hotpath
func (c *Compiled) AppendIDs(dst []int32, terms []string) []int32 {
	for _, t := range terms {
		if id, ok := c.ids[t]; ok {
			dst = append(dst, id)
		} else if id, ok := c.overlay[t]; ok {
			dst = append(dst, id)
		} else {
			dst = append(dst, -1)
		}
	}
	return dst
}

// ScoreInto scores the query (as interned ids from AppendIDs) into scores,
// which must have length NumDBs; previous contents are overwritten. It
// returns false when alg is not one of the compiled algorithm families
// (CORI, Gloss) — the caller should fall back to Algorithm.Scores.
//
//lint:hotpath
func (c *Compiled) ScoreInto(alg Algorithm, ids []int32, scores []float64) bool {
	switch a := alg.(type) {
	case CORI:
		c.scoreCORI(a, ids, scores)
	case Gloss:
		c.scoreGloss(a, ids, scores)
	default:
		return false
	}
	return true
}

// scoreCORI mirrors CORI.Scores. Per query term the belief added to a
// database without the term is exactly B (the T component is zero), so
// only posting databases evaluate the full belief expression; every other
// database adds the constant. Accumulation stays query-term major with one
// addition per (term, database), so the float64 stream per database is
// identical to the map-based loop's.
func (c *Compiled) scoreCORI(co CORI, ids []int32, scores []float64) {
	b, k0, k1 := co.B, co.K0, co.K1
	if b == 0 {
		b = 0.4
	}
	if k0 == 0 {
		k0 = 50
	}
	if k1 == 0 {
		k1 = 150
	}
	n := c.n
	for i := 0; i < n; i++ {
		scores[i] = 0
	}
	if n == 0 || len(ids) == 0 {
		return
	}
	for _, id := range ids {
		if id < 0 {
			// Unknown term: cf = 0, idf = 0, belief = B everywhere.
			for i := 0; i < n; i++ {
				scores[i] += b
			}
			continue
		}
		idf := c.idf[id]
		pos, end := int(c.postStart[id]), int(c.postStart[id+1])
		next := int32(-1)
		if pos < end {
			next = c.postDB[pos]
		}
		for i := 0; i < n; i++ {
			if int32(i) != next {
				scores[i] += b
				continue
			}
			df := c.postDF[pos]
			tcomp := df / (df + k0 + k1*c.cw[i]/c.avgCW)
			scores[i] += b + (1-b)*tcomp*idf
			pos++
			next = -1
			if pos < end {
				next = c.postDB[pos]
			}
		}
	}
	for i := 0; i < n; i++ {
		scores[i] /= float64(len(ids))
	}
}

// scoreGloss mirrors Gloss.Scores. For the Sum estimator, absent terms
// contribute +0 and are skipped outright (x + 0 is exact); the Ind
// estimator multiplies, so absent terms must still zero the estimate —
// that path walks densely per term, carrying the posting cursor.
func (c *Compiled) scoreGloss(g Gloss, ids []int32, scores []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		scores[i] = 0
	}
	if g.Estimator == GlossInd {
		for i := 0; i < n; i++ {
			if c.docs[i] > 0 {
				scores[i] = c.docs[i]
			}
		}
		for _, id := range ids {
			var pos, end int
			if id >= 0 {
				pos, end = int(c.postStart[id]), int(c.postStart[id+1])
			}
			next := int32(-1)
			if pos < end {
				next = c.postDB[pos]
			}
			for i := 0; i < n; i++ {
				df := 0.0
				if int32(i) == next {
					df = c.postDF[pos]
					pos++
					next = -1
					if pos < end {
						next = c.postDB[pos]
					}
				}
				docs := c.docs[i]
				if docs == 0 {
					continue // map path skips empty databases entirely
				}
				frac := df / docs
				if frac < g.Threshold {
					frac = 0
				}
				scores[i] *= frac
			}
		}
		return
	}
	// Sum estimator: sparse — only posting databases receive a nonzero
	// addend, and adding 0.0 to a non-negative partial sum is exact, so
	// skipping absent (term, database) pairs preserves bit equality.
	for _, id := range ids {
		if id < 0 {
			continue
		}
		for pos, end := int(c.postStart[id]), int(c.postStart[id+1]); pos < end; pos++ {
			i := c.postDB[pos]
			docs := c.docs[i]
			if docs == 0 {
				continue
			}
			frac := c.postDF[pos] / docs
			if frac < g.Threshold {
				frac = 0
			}
			scores[i] += frac
		}
	}
}

// RankInto scores and ranks in one call without allocating: ids, scores
// and out are caller-recycled buffers (scores must have length NumDBs; out
// is appended to from empty). The ranking is identical to Rank over the
// same models: best first, ties by database index. ok reports whether alg
// is a compiled algorithm family.
//
//lint:hotpath
func (c *Compiled) RankInto(alg Algorithm, ids []int32, scores []float64, out []Ranked) ([]Ranked, bool) {
	if !c.ScoreInto(alg, ids, scores) {
		return out, false
	}
	for i := 0; i < c.n; i++ {
		out = append(out, Ranked{DB: i, Score: scores[i]})
	}
	// The comparator is total (ties broken by DB), so the unstable pdqsort
	// yields exactly the order sort.SliceStable yields in Rank.
	slices.SortFunc(out, func(a, b Ranked) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.DB < b.DB:
			return -1
		case a.DB > b.DB:
			return 1
		}
		return 0
	})
	return out, true
}

// Rank is the convenience form of RankInto for callers that do not manage
// buffers (tests, one-shot tools): it resolves the query terms and returns
// a fresh ranking, falling back to the map-based Rank for non-compiled
// algorithms — for which it needs the original models, so it panics if alg
// is not a compiled family. Serving paths use RankInto with pooled buffers.
func (c *Compiled) Rank(alg Algorithm, query []string) []Ranked {
	ids := c.AppendIDs(make([]int32, 0, len(query)), query)
	scores := make([]float64, c.n)
	out, ok := c.RankInto(alg, ids, scores, make([]Ranked, 0, c.n))
	if !ok {
		panic("selection: " + alg.Name() + " is not a compiled algorithm family")
	}
	return out
}
