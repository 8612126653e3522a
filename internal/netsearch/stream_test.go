package netsearch

// Tests for the "rankstream" wire op (DESIGN.md §15), the wire's one rank
// op: streamed items over real TCP, in-order delivery with per-item
// errors, the one-write reply for a single query, the collecting
// RankDBsBatch, caller aborts that discard the connection without fault
// accounting or retries, the connection surviving for the next operation,
// and the retired per-query and buffered rank ops answering "unknown op".

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func collectRankStream(t *testing.T, c *Client, queries []string, k int) []RankedBatch {
	t.Helper()
	var items []RankedBatch
	err := c.RankDBsStream(queries, "cori", k, "", func(i int, item RankedBatch) error {
		if i != len(items) {
			return fmt.Errorf("item %d arrived out of order (want %d)", i, len(items))
		}
		items = append(items, item)
		return nil
	})
	if err != nil {
		t.Fatalf("RankDBsStream: %v", err)
	}
	return items
}

// TestRankStreamOverTCP: a streaming shard (with a per-item error) must
// deliver every item, in order, and leave the connection usable.
func TestRankStreamOverTCP(t *testing.T) {
	ranked := []RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.4}}
	t.Run("stream", func(t *testing.T) {
		c := startShardServer(t, &fakeShard{
			ranked:     ranked,
			perItemErr: map[int]string{1: "no index terms"},
		})
		queries := []string{"apple", "the and of", "plum"}
		items := collectRankStream(t, c, queries, 2)
		if len(items) != len(queries) {
			t.Fatalf("got %d items for %d queries", len(items), len(queries))
		}
		for i, it := range items {
			if i == 1 {
				if it.Error != "no index terms" || it.Ranked != nil {
					t.Errorf("item 1 = %+v, want the shard's streamed error", it)
				}
				continue
			}
			if it.Error != "" || !reflect.DeepEqual(it.Ranked, ranked) {
				t.Errorf("item %d = %+v, want %+v", i, it, ranked)
			}
		}
		// The connection survives the stream: the next op reuses it.
		got, err := c.RankDBsBatch([]string{"apple"}, "cori", 1, "")
		if err != nil {
			t.Fatalf("rank after stream: %v", err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0].Ranked, ranked[:1]) {
			t.Errorf("rank after stream = %+v, want %+v", got, ranked[:1])
		}
	})
}

// TestRankStreamServerError: a whole-batch refusal (the shard's ranker
// errors before any item) surfaces as a remote error, not a dropped
// connection.
func TestRankStreamServerError(t *testing.T) {
	c := startShardServer(t, &fakeShard{rankErr: errors.New("invalid argument: bogus alg")})
	err := c.RankDBsStream([]string{"q"}, "bogus", 5, "", func(int, RankedBatch) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "invalid argument") {
		t.Errorf("stream error = %v, want the server-reported message", err)
	}
	if _, err := c.RankDBsBatch([]string{"q"}, "bogus", 5, ""); err == nil || !strings.Contains(err.Error(), "invalid argument") {
		t.Errorf("collected stream error = %v, want the server-reported message", err)
	}
}

// TestRankStreamOneQueryOneWrite: a one-query stream's item frame and its
// terminal frame leave the server in a single write, so the client's
// first read holds both.
func TestRankStreamOneQueryOneWrite(t *testing.T) {
	sh := &fakeShard{ranked: []RankedDB{{Name: "db-a", Score: 0.9}}}
	srv, err := Serve(sh, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"rankstream","queries":["apple"],"alg":"cori"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if !strings.Contains(got, `"index":0`) || !strings.Contains(got, `"eos":true`) {
		t.Errorf("first read = %q, want the item and eos frames together", got)
	}
}

// gapShard emits a scripted index sequence regardless of the batch.
type gapShard struct {
	fakeShard
	indexes []int
}

func (g *gapShard) RankDBsStream(queries []string, alg string, k int, emit func(i int, item RankedBatch) error) error {
	for _, i := range g.indexes {
		if err := emit(i, RankedBatch{Ranked: []RankedDB{{Name: fmt.Sprintf("db-%d-%d", i, len(queries))}}}); err != nil {
			return err
		}
	}
	return nil
}

// TestRankDBsBatchCollects: the collecting client keeps the first
// delivery of each index and refuses a stream that skipped one.
func TestRankDBsBatchCollects(t *testing.T) {
	srv, err := Serve(&gapShard{indexes: []int{1, 0, 1}}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	got, err := c.RankDBsBatch([]string{"a", "b"}, "cori", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Ranked[0].Name != "db-0-2" || got[1].Ranked[0].Name != "db-1-2" {
		t.Errorf("collected %+v, want one item per index in input order", got)
	}
	if _, err := c.RankDBsBatch([]string{"a", "b", "c"}, "cori", 0, ""); err == nil ||
		!strings.Contains(err.Error(), "no item for query 2") {
		t.Errorf("stream missing an index: err = %v, want a missing-item error", err)
	}
}

// TestRetiredRankOpsRejected: the per-query "rank" and buffered
// "rankbatch" ops are gone from the wire; a server answers them like any
// unknown op, with an error frame on a connection that stays usable.
func TestRetiredRankOpsRejected(t *testing.T) {
	sh := &fakeShard{ranked: []RankedDB{{Name: "db-a", Score: 0.9}}}
	srv, err := Serve(sh, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for _, frame := range []string{
		`{"op":"rank","query":"apple","alg":"cori","n":2}`,
		`{"op":"rankbatch","queries":["apple"],"alg":"cori","n":2}`,
	} {
		if _, err := conn.Write([]byte(frame + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(line, "unknown op") {
			t.Errorf("%s answered %q, want an unknown-op error frame", frame, line)
		}
	}
}

// TestRankStreamUnsupported: a plain document database is not a ranker;
// the server answers with a clean error, not a dropped connection.
func TestRankStreamUnsupported(t *testing.T) {
	_, c := startServer(t, "apple pie")
	err := c.RankDBsStream([]string{"apple"}, "cori", 5, "", func(int, RankedBatch) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "rankstream unsupported") {
		t.Errorf("rankstream on a non-ranker = %v", err)
	}
	if _, err := c.Search("apple", 1); err != nil {
		t.Errorf("connection unusable after the refusal: %v", err)
	}
}

// TestRankStreamCallerAbort: an emit error mid-stream surfaces as-is,
// costs no fault or retry (the caller chose to leave), discards the
// now-desynchronized connection, and the client redials for the next op.
func TestRankStreamCallerAbort(t *testing.T) {
	sh := &fakeShard{ranked: []RankedDB{{Name: "db-a", Score: 0.9}}}
	srv, err := Serve(sh, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := telemetry.NewRegistry()
	c, err := DialWith(srv.Addr(), Options{
		Metrics: reg,
		Retry:   RetryPolicy{Attempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	abort := fmt.Errorf("%w: consumer gone", ErrStreamCanceled)
	emits := 0
	err = c.RankDBsStream([]string{"a", "b", "c"}, "cori", 2, "", func(int, RankedBatch) error {
		emits++
		return abort
	})
	if !errors.Is(err, ErrStreamCanceled) {
		t.Fatalf("aborted stream error = %v, want ErrStreamCanceled", err)
	}
	if emits != 1 {
		t.Fatalf("emit ran %d times after aborting, want 1 (no retry replay)", emits)
	}
	if got := c.Stats().Faults; got != 0 {
		t.Errorf("caller abort counted %d transport faults, want 0", got)
	}
	if got := reg.Counter("netsearch_conns_discarded_total").Value(); got != 1 {
		t.Errorf("conns discarded = %d, want 1 (the desynced stream connection)", got)
	}
	// The abandoned connection was discarded; the next op redials cleanly.
	got, err := c.RankDBsBatch([]string{"apple"}, "cori", 1, "")
	if err != nil {
		t.Fatalf("rank after aborted stream: %v", err)
	}
	if len(got) != 1 || len(got[0].Ranked) != 1 || got[0].Ranked[0].Name != "db-a" {
		t.Errorf("post-abort rank = %+v", got)
	}
}
