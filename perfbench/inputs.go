package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/langmodel"
	"repro/internal/loadgen"
	"repro/internal/randx"
)

// Input sizes. They are fixed here rather than taken as flags so that
// every run of a workload measures the same shape of work; only the seed
// varies.
const (
	pointDBs      = 100  // synthetic models behind point and fanout
	pointHotPool  = 256  // distinct hot queries, well inside the 1024-entry LRU
	pointHotShare = 0.5  // share of point requests drawn from the hot pool
	queryTerms    = 3    // terms per point/fanout query
	zipfS         = 1.2  // skew of fresh query terms over the 4000-word pool
	fanoutBatch   = 8    // queries per POST /rank/batch
	fanoutShards  = 2    // slots behind the fanout front
	rankK         = 10   // k of every rank request
	refreshDBs    = 24   // federation databases behind refresh
	refreshDocs   = 1500 // documents per federation database
	refreshTopics = 60   // topical terms kept per database for refresh queries
	sampleDocs    = 300  // document budget of every sampling run
	samplePerQ    = 4    // documents examined per sampling query
)

// stream derives per-purpose random sources from the workload seed, so
// that each client's query sequence, the hot pool and the models are
// independent of one another and of how many requests a run completes.
type stream struct{ seed uint64 }

// Fork labels. Clients use clientFork+c.
const (
	modelFork  = 1
	hotFork    = 2
	fedFork    = 3
	clientFork = 100
)

func (s stream) src(label uint64) *randx.Source { return randx.New(s.seed).Fork(label) }

// modelSeed is the seed handed to loadgen.SyntheticModels and
// experiments.Federation; it is never 0, which both treat as unset.
func (s stream) modelSeed(label uint64) uint64 { return s.src(label).Uint64() | 1 }

// pointInputs is the input of the point and fanout workloads: the model
// set, the word pool, and point's hot query pool.
type pointInputs struct {
	models []*langmodel.Model
	names  []string
	vocab  []string
	hot    []string
	seed   stream
}

func newPointInputs(seed uint64) *pointInputs {
	st := stream{seed}
	models, vocab := loadgen.SyntheticModels(pointDBs, st.modelSeed(modelFork))
	in := &pointInputs{models: models, names: dbNames(len(models)), vocab: vocab, seed: st}
	src := st.src(hotFork)
	zipf := randx.NewZipf(src, zipfS, 1, uint64(len(vocab)-1))
	seen := make(map[string]bool, pointHotPool)
	for len(in.hot) < pointHotPool {
		q := zipfQuery(zipf, vocab)
		if !seen[q] {
			seen[q] = true
			in.hot = append(in.hot, q)
		}
	}
	return in
}

func dbNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("db-%03d", i)
	}
	return names
}

func zipfQuery(z *randx.Zipf, vocab []string) string {
	var sb strings.Builder
	for t := 0; t < queryTerms; t++ {
		if t > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(vocab[z.Uint64()])
	}
	return sb.String()
}

// clientStream is one closed-loop client's query sequence: a pure
// function of (seed, client), consumed in order.
type clientStream struct {
	src  *randx.Source
	zipf *randx.Zipf
}

func (s stream) client(c int, vocab []string) *clientStream {
	cs := &clientStream{src: s.src(clientFork + uint64(c))}
	if len(vocab) > 0 {
		cs.zipf = randx.NewZipf(cs.src, zipfS, 1, uint64(len(vocab)-1))
	}
	return cs
}

// next returns the client's next point query and whether it came from
// the hot pool.
func (in *pointInputs) next(cs *clientStream) (string, bool) {
	if cs.src.Float64() < pointHotShare {
		return in.hot[cs.src.Intn(len(in.hot))], true
	}
	return zipfQuery(cs.zipf, in.vocab), false
}

// nextBatch returns the client's next fanout batch of fresh Zipf queries.
func (in *pointInputs) nextBatch(cs *clientStream) []string {
	b := make([]string, fanoutBatch)
	for i := range b {
		b[i] = zipfQuery(cs.zipf, in.vocab)
	}
	return b
}

// refreshInputs is the refresh workload's input: the federation of text
// databases and, per database, the topical terms its rank queries use.
type refreshInputs struct {
	dbs     []*experiments.FederationDB
	topical [][]string
	seed    stream
}

func newRefreshInputs(seed uint64) (*refreshInputs, error) {
	st := stream{seed}
	dbs, err := experiments.Federation(refreshDBs, refreshDocs, st.modelSeed(fedFork), experiments.WithWorkers(2))
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	in := &refreshInputs{dbs: dbs, seed: st}
	for _, db := range dbs {
		in.topical = append(in.topical, experiments.TopicalTerms(db, dbs, refreshTopics))
	}
	return in, nil
}

// next returns the client's next refresh query: two topical terms of one
// database, so that every query has a clearly right answer.
func (in *refreshInputs) next(cs *clientStream) string {
	terms := in.topical[cs.src.Intn(len(in.topical))]
	return terms[cs.src.Intn(len(terms))] + " " + terms[cs.src.Intn(len(terms))]
}

// sampleSeed is the seed of the n-th re-sample in the timed phase; it
// never repeats the set-up seeds, so every re-sample learns afresh.
func (in *refreshInputs) sampleSeed(n int) uint64 {
	return in.seed.src(clientFork+1000+uint64(n)).Uint64() | 1
}
