package main

import (
	"bytes"
	"fmt"
	"testing"
)

// pointBytes serializes everything point and fanout feed the program for
// a seed: the models, the hot pool, and each client's first requests.
func pointBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	in := newPointInputs(seed)
	var b bytes.Buffer
	for i, m := range in.models {
		fmt.Fprintf(&b, "model %s\n", in.names[i])
		if _, err := m.WriteBinary(&b); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "hot %q\n", in.hot)
	for c := 0; c < clients; c++ {
		point, fanout := in.seed.client(c, in.vocab), in.seed.client(c, in.vocab)
		for i := 0; i < 500; i++ {
			q, hot := in.next(point)
			fmt.Fprintf(&b, "point %d %q %v\n", c, q, hot)
		}
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&b, "batch %d %q\n", c, in.nextBatch(fanout))
		}
	}
	return b.Bytes()
}

// refreshBytes serializes refresh's inputs: the databases' documents (via
// their actual models), the topical terms, the rank queries and the
// re-sample seeds.
func refreshBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	in, err := newRefreshInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i, db := range in.dbs {
		fmt.Fprintf(&b, "db %s %q\n", db.Name, in.topical[i])
		if _, err := db.Actual.WriteBinary(&b); err != nil {
			t.Fatal(err)
		}
	}
	cs := in.seed.client(0, nil)
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "query %q seed %d\n", in.next(cs), in.sampleSeed(i))
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range []struct {
		name  string
		bytes func(*testing.T, uint64) []byte
	}{{"point+fanout", pointBytes}, {"refresh", refreshBytes}} {
		t.Run(w.name, func(t *testing.T) {
			a, again, other := w.bytes(t, 7), w.bytes(t, 7), w.bytes(t, 8)
			if !bytes.Equal(a, again) {
				t.Fatal("the same seed produced different inputs")
			}
			if bytes.Equal(a, other) {
				t.Fatal("different seeds produced identical inputs")
			}
		})
	}
}
