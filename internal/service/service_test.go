package service

import (
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/netsearch"
	"repro/internal/store"
)

// fixture builds a federation and a service with every database
// registered locally.
func fixture(t *testing.T, st *store.Store) (*Service, []*experiments.FederationDB) {
	t.Helper()
	dbs, err := experiments.Federation(3, 200, 31)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), st)
	for _, db := range dbs {
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	return svc, dbs
}

func TestRegisterAndList(t *testing.T) {
	svc, dbs := fixture(t, nil)
	statuses := svc.Databases()
	if len(statuses) != len(dbs) {
		t.Fatalf("got %d databases, want %d", len(statuses), len(dbs))
	}
	for _, st := range statuses {
		if st.HasModel {
			t.Errorf("%s has a model before sampling", st.Name)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	svc := New(analysis.Database(), nil)
	if err := svc.Register("", "addr"); err == nil {
		t.Error("empty name accepted")
	}
	if err := svc.RegisterLocal("x", nil); err == nil {
		t.Error("nil database accepted")
	}
	if err := svc.Register("dup", "a:1"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("dup", "a:2"); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestSampleAndRank(t *testing.T) {
	svc, dbs := fixture(t, nil)
	for _, db := range dbs {
		st, err := svc.Sample(db.Name, SampleOptions{Docs: 60, Seed: 5})
		if err != nil {
			t.Fatalf("sample %s: %v", db.Name, err)
		}
		if !st.HasModel || st.SampledDocs == 0 || st.Terms == 0 {
			t.Errorf("%s status after sampling: %+v", db.Name, st)
		}
	}
	// Topical query for db 0 must rank db 0 first.
	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	query := terms[0] + " " + terms[1]
	ranked, err := svc.Rank(query, "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d databases", len(ranked))
	}
	if ranked[0].Name != dbs[0].Name {
		t.Errorf("query %q ranked %s first, want %s", query, ranked[0].Name, dbs[0].Name)
	}
	// k limiting.
	top1, err := svc.Rank(query, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) != 1 {
		t.Errorf("k=1 returned %d rows", len(top1))
	}
}

func TestRankErrors(t *testing.T) {
	svc, dbs := fixture(t, nil)
	if _, err := svc.Rank("anything", "cori", 0); err == nil {
		t.Error("rank before any sampling should fail")
	}
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("query", "bogus-alg", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := svc.Rank("the and of", "cori", 0); err == nil {
		t.Error("stopword-only query accepted")
	}
}

func TestSampleUnknownDatabase(t *testing.T) {
	svc, _ := fixture(t, nil)
	if _, err := svc.Sample("ghost", SampleOptions{}); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("got %v, want ErrUnknownDatabase", err)
	}
}

func TestSummary(t *testing.T) {
	svc, dbs := fixture(t, nil)
	if _, err := svc.Summary(dbs[0].Name, "avg-tf", 5); err == nil {
		t.Error("summary before sampling should fail")
	}
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50}); err != nil {
		t.Fatal(err)
	}
	rows, err := svc.Summary(dbs[0].Name, "df", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 5 {
		t.Errorf("summary rows = %d", len(rows))
	}
	if _, err := svc.Summary(dbs[0].Name, "bogus", 5); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := svc.Summary("ghost", "df", 5); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("got %v, want ErrUnknownDatabase", err)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	svc, dbs := fixture(t, st)
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh service over the same store. Registering the same
	// database name picks up the persisted model without re-sampling.
	svc2 := New(analysis.Database(), st)
	if err := svc2.RegisterLocal(dbs[0].Name, dbs[0].Index); err != nil {
		t.Fatal(err)
	}
	statuses := svc2.Databases()
	if len(statuses) != 1 || !statuses[0].HasModel {
		t.Fatalf("persisted model not loaded: %+v", statuses)
	}
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)
	if _, err := svc2.Rank(terms[0], "cori", 0); err != nil {
		t.Errorf("rank with persisted model failed: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	svc, dbs := fixture(t, st)
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 30}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Unregister(dbs[0].Name); err != nil {
		t.Fatal(err)
	}
	if len(svc.Databases()) != len(dbs)-1 {
		t.Error("database still listed after unregister")
	}
	// Persisted model deleted too.
	if _, err := st.Get(dbs[0].Name); !errors.Is(err, store.ErrNotFound) {
		t.Error("persisted model survived unregister")
	}
	if err := svc.Unregister("ghost"); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("got %v, want ErrUnknownDatabase", err)
	}
}

func TestSampleRemoteDatabase(t *testing.T) {
	// A remote database is reached lazily through netsearch.
	p := corpus.Profile{
		Name: "remote", Docs: 150, SharedVocabSize: 600, SharedProb: 0.5,
		Topics:   []corpus.TopicSpec{{Name: "t", VocabSize: 2500, Weight: 1}},
		DocLenMu: 4.2, DocLenSigma: 0.5, MinDocLen: 12,
		ZipfS: 1.35, ZipfV: 2, Seed: 8,
	}
	ix := index.Build(p.MustGenerate(), analysis.Database(), index.InQuery)
	srv, err := netsearch.Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	svc := New(analysis.Database(), nil)
	defer svc.Close()
	if err := svc.Register("remote-db", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Sample("remote-db", SampleOptions{Docs: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.SampledDocs == 0 || !st.HasModel {
		t.Errorf("remote sampling produced %+v", st)
	}
}

func TestSampleConnectFailureRecorded(t *testing.T) {
	svc := New(analysis.Database(), nil)
	if err := svc.Register("down", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample("down", SampleOptions{}); err == nil {
		t.Fatal("sampling an unreachable database succeeded")
	}
	statuses := svc.Databases()
	if statuses[0].LastError == "" {
		t.Error("connection failure not recorded in status")
	}
}

func TestSampleAll(t *testing.T) {
	svc, dbs := fixture(t, nil)
	statuses, errs := svc.SampleAll(SampleOptions{Docs: 40, Seed: 3}, 2)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(statuses) != len(dbs) {
		t.Fatalf("got %d statuses", len(statuses))
	}
	for name, st := range statuses {
		if !st.HasModel || st.SampledDocs == 0 {
			t.Errorf("%s not sampled: %+v", name, st)
		}
	}
	// Ranking works immediately afterward.
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)
	if _, err := svc.Rank(terms[0]+" "+terms[1], "cori", 0); err != nil {
		t.Errorf("rank after SampleAll: %v", err)
	}
}

func TestSampleAllPartialFailure(t *testing.T) {
	svc, dbs := fixture(t, nil)
	if err := svc.Register("down", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	statuses, errs := svc.SampleAll(SampleOptions{Docs: 30}, 3)
	if errs["down"] == nil {
		t.Fatal("expected an error from the unreachable database")
	}
	if len(errs) != 1 {
		t.Errorf("healthy databases reported errors: %v", errs)
	}
	// The healthy databases were still sampled.
	for _, db := range dbs {
		if st := statuses[db.Name]; !st.HasModel {
			t.Errorf("%s skipped because another database failed", db.Name)
		}
	}
	if statuses["down"].HasModel {
		t.Error("unreachable database claims a model")
	}
}

func TestSampleExtendGrowsSample(t *testing.T) {
	svc, dbs := fixture(t, nil)
	first, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 10, Extend: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.SampledDocs < first.SampledDocs+40 {
		t.Errorf("extend grew sample only %d -> %d", first.SampledDocs, second.SampledDocs)
	}
	if second.Terms <= first.Terms {
		t.Errorf("extend did not grow vocabulary: %d -> %d", first.Terms, second.Terms)
	}
	// Extend without a previous run falls back to a fresh sample.
	fresh, err := svc.Sample(dbs[1].Name, SampleOptions{Docs: 40, Extend: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.SampledDocs == 0 {
		t.Error("extend-without-prev sampled nothing")
	}
}

// TestSamplingDeterministicAcrossServices pins what replica convergence
// in a cluster rests on: fresh services that learn the same databases
// with the same seeds issue the same queries and learn byte-identical
// models. The third run draws its first query term from the union of the
// two models learned before it, so that union's order must not depend
// on map iteration.
func TestSamplingDeterministicAcrossServices(t *testing.T) {
	type outcome struct {
		queries [][]string
		prints  []uint64
	}
	run := func() outcome {
		svc, dbs := fixture(t, nil)
		var o outcome
		for i, db := range dbs {
			if _, err := svc.Sample(db.Name, SampleOptions{Docs: 40, Seed: uint64(11 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, db := range dbs {
			e := svc.entries[db.Name]
			o.queries = append(o.queries, e.lastRun.QueryTerms)
			o.prints = append(o.prints, e.model.Fingerprint())
		}
		return o
	}
	want := run()
	for i := 1; i < 8; i++ {
		got := run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("service %d diverged from service 0:\n got %v\nwant %v", i, got, want)
		}
	}
}

// checkServedVocabulary compares the reference-counted union against a
// from-scratch one.
func checkServedVocabulary(t *testing.T, svc *Service, stage string) {
	t.Helper()
	union := map[string]bool{}
	svc.mu.RLock()
	for _, e := range svc.entries {
		if e.model != nil {
			for _, term := range e.model.Vocabulary() {
				union[term] = true
			}
		}
	}
	svc.mu.RUnlock()
	want := make([]string, 0, len(union))
	for term := range union {
		want = append(want, term)
	}
	sort.Strings(want)
	got := []string(nil)
	if len(want) > 0 {
		got = []string(svc.initialModel().(termList))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: served vocabulary has %d terms, want %d", stage, len(got), len(want))
	}
	if len(svc.vocabRefs) != len(want) {
		t.Fatalf("%s: %d reference counts for %d terms", stage, len(svc.vocabRefs), len(want))
	}
}

// TestServedVocabularyTracksModels follows the union through joins, a
// resample and leaves, then through a restart whose registrations queue
// their stored models, one of which leaves before it was counted in.
func TestServedVocabularyTracksModels(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, dbs := fixture(t, st)
	for i, db := range dbs {
		if _, err := svc.Sample(db.Name, SampleOptions{Docs: 40, Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		checkServedVocabulary(t, svc, "after sampling "+db.Name)
	}
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 60, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	checkServedVocabulary(t, svc, "after resampling "+dbs[0].Name)

	restarted := New(analysis.Database(), st)
	for _, db := range dbs {
		if err := restarted.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	if err := restarted.Unregister(dbs[1].Name); err != nil {
		t.Fatal(err)
	}
	checkServedVocabulary(t, restarted, "after a restart and unregistering "+dbs[1].Name)
	if _, err := restarted.Sample(dbs[2].Name, SampleOptions{Docs: 30, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	checkServedVocabulary(t, restarted, "after resampling "+dbs[2].Name)
	for _, db := range []*experiments.FederationDB{dbs[0], dbs[2]} {
		if err := restarted.Unregister(db.Name); err != nil {
			t.Fatal(err)
		}
	}
	checkServedVocabulary(t, restarted, "with nothing served")
	if restarted.initialModel().VocabSize() != len(seedTerms) {
		t.Error("an empty service does not fall back to the seed terms")
	}
}

// gatedDB blocks its first Search until release is closed.
type gatedDB struct {
	core.Database
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedDB) Search(q string, n int) ([]int, error) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.Database.Search(q, n)
}

// TestUnregisterDuringSampleLeavesVocabulary: a run that finishes after
// its database was unregistered must not add its model to the served
// vocabulary, which would then never be counted out again.
func TestUnregisterDuringSampleLeavesVocabulary(t *testing.T) {
	dbs, err := experiments.Federation(1, 200, 31)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), nil)
	g := &gatedDB{Database: dbs[0].Index, started: make(chan struct{}), release: make(chan struct{})}
	if err := svc.RegisterLocal(dbs[0].Name, g); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 40})
		done <- err
	}()
	<-g.started
	if err := svc.Unregister(dbs[0].Name); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	if len(svc.vocab) != 0 || len(svc.vocabRefs) != 0 {
		t.Errorf("unregistered database's model left %d terms in the served vocabulary", len(svc.vocab))
	}
}

func TestInitialModelGrowsWithKnowledge(t *testing.T) {
	svc, dbs := fixture(t, nil)
	before := svc.initialModel()
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 40}); err != nil {
		t.Fatal(err)
	}
	after := svc.initialModel()
	if after.VocabSize() <= before.VocabSize() {
		t.Errorf("union initial model did not grow: %d -> %d",
			before.VocabSize(), after.VocabSize())
	}
}
