package netsearch

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// fakeShard is a servable that implements the cluster capability
// interfaces (StreamBatchRanker, Registrar) on top of a trivial registry:
// every query ranks to the same list, cut to k; perItemErr scripts
// per-query errors by index, and rankErr refuses whole batches.
type fakeShard struct {
	registered map[string]string
	ranked     []RankedDB
	rankErr    error
	perItemErr map[int]string
}

func (f *fakeShard) Search(query string, n int) ([]int, error) {
	return nil, errors.New("not a document database")
}

func (f *fakeShard) Fetch(id int) (corpus.Document, error) {
	return corpus.Document{}, errors.New("not a document database")
}

func (f *fakeShard) RankDBsStream(queries []string, alg string, k int, emit func(i int, item RankedBatch) error) error {
	if f.rankErr != nil {
		return f.rankErr
	}
	out := f.ranked
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	for i := range queries {
		item := RankedBatch{Ranked: out}
		if msg, ok := f.perItemErr[i]; ok {
			item = RankedBatch{Error: msg}
		}
		if err := emit(i, item); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeShard) RegisterDB(name, addr string) error {
	if _, dup := f.registered[name]; dup {
		return fmt.Errorf("database %q already registered", name)
	}
	f.registered[name] = addr
	return nil
}

func (f *fakeShard) UnregisterDB(name string) error {
	if _, ok := f.registered[name]; !ok {
		return fmt.Errorf("unknown database %q", name)
	}
	delete(f.registered, name)
	return nil
}

func startShardServer(t *testing.T, shard *fakeShard) *Client {
	t.Helper()
	srv, err := Serve(shard, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRegisterUnregisterOpsOverTCP(t *testing.T) {
	shard := &fakeShard{registered: map[string]string{}}
	c := startShardServer(t, shard)
	if err := c.RegisterDB("db-x", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDB("db-x", "127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate register error = %v", err)
	}
	if err := c.UnregisterDB("db-x"); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterDB("db-x"); err == nil || !strings.Contains(err.Error(), "unknown database") {
		t.Errorf("double unregister error = %v", err)
	}
}
