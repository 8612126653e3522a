package rankcache

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// value returns a compute func that yields v and counts its calls.
func value(v string, calls *int) func() (string, error) {
	return func() (string, error) {
		*calls++
		return v, nil
	}
}

func TestLRUBoundAndRecency(t *testing.T) {
	c := New[string, string](3, Hooks{})
	calls := 0
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		if _, how, err := c.Do(k, true, value(k, &calls)); err != nil || how != Miss {
			t.Fatalf("Do(%s) = %v, %v; want a miss", k, how, err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, cap 3", c.Len())
	}
	// "c","d","e" remain; touching "c" makes "d" the eviction victim.
	if v, how, _ := c.Do("c", true, value("x", &calls)); how != Hit || v != "c" {
		t.Fatalf("Do(c) = %q, %v; want a hit on the cached value", v, how)
	}
	c.Do("f", true, value("f", &calls))
	if _, how, _ := c.Do("d", true, value("d", &calls)); how != Miss {
		t.Fatalf("LRU entry d survived eviction (outcome %v)", how)
	}
	if _, how, _ := c.Do("c", true, value("c", &calls)); how != Hit {
		t.Fatalf("recently used entry c was evicted (outcome %v)", how)
	}
	if calls != 7 {
		t.Fatalf("compute ran %d times, want 7", calls)
	}
}

func TestBypassNeverTouchesLRU(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		c := New[string, string](capacity, Hooks{})
		calls := 0
		for i := 0; i < 2; i++ {
			if _, how, _ := c.Do("k", false, value("v", &calls)); how != Bypass {
				t.Fatalf("cap %d: admit=false outcome %v, want Bypass", capacity, how)
			}
		}
		if capacity == 0 {
			if _, how, _ := c.Do("k", true, value("v", &calls)); how != Bypass {
				t.Fatalf("cap 0: admitting outcome %v, want Bypass", how)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("cap %d: bypassing calls admitted %d entries", capacity, c.Len())
		}
	}
}

// waitFor yields until cond holds.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// leadBlocked starts a leader for key whose compute blocks until release
// is closed, and returns once the flight is live.
func leadBlocked(t *testing.T, c *Cache[string, string], key string, release <-chan struct{}, v string, err error) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, e := c.Do(key, false, func() (string, error) {
			<-release
			return v, err
		})
		done <- e
	}()
	waitFor(func() bool { return c.Inflight() > 0 }) // the leader registers before computing
	return done
}

func TestSingleFlightFollowers(t *testing.T) {
	var joins, hits, misses atomic.Int64
	var flights atomic.Int64
	c := New[string, string](4, Hooks{
		Hit:     func() { hits.Add(1) },
		Miss:    func() { misses.Add(1) },
		Join:    func() { joins.Add(1) },
		Flights: func(delta int) { flights.Add(int64(delta)) },
	})
	release := make(chan struct{})
	leader := leadBlocked(t, c, "q", release, "shared", nil)

	const followers = 6
	var wg sync.WaitGroup
	got := make([]string, followers)
	outcomes := make([]Outcome, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Odd followers admit (the single-query path), even ones do not
			// (the batch path).
			got[i], outcomes[i], _ = c.Do("q", i%2 == 1, func() (string, error) {
				t.Errorf("follower %d computed", i)
				return "", nil
			})
		}(i)
	}
	waitFor(func() bool { return joins.Load() == followers })
	close(release)
	wg.Wait()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := Bypass
		if i%2 == 1 {
			want = Joined
		}
		if got[i] != "shared" || outcomes[i] != want {
			t.Errorf("follower %d = %q, %v; want the leader's value, %v", i, got[i], outcomes[i], want)
		}
	}
	// Admitting followers count as hits (never misses: they did not
	// compute) and cache the batch leader's value.
	if hits.Load() != followers/2 || misses.Load() != 0 {
		t.Errorf("hooks saw hits=%d misses=%d, want %d and 0", hits.Load(), misses.Load(), followers/2)
	}
	if c.Len() != 1 {
		t.Errorf("LRU holds %d entries, want the followers' admitted value", c.Len())
	}
	if c.Inflight() != 0 || flights.Load() != 0 {
		t.Errorf("flights = %d (hook saw %d) after the leader finished, want 0", c.Inflight(), flights.Load())
	}
}

func TestErrorsReachOnlyWaitingFollowers(t *testing.T) {
	var joins atomic.Int64
	c := New[string, string](4, Hooks{Join: func() { joins.Add(1) }})
	release := make(chan struct{})
	leader := leadBlocked(t, c, "q", release, "", errors.New("scatter failed"))
	follower := make(chan error, 1)
	go func() {
		_, _, err := c.Do("q", true, value("unused", new(int)))
		follower <- err
	}()
	waitFor(func() bool { return joins.Load() > 0 })
	close(release)
	if err := <-leader; err == nil {
		t.Fatal("leader error lost")
	}
	if err := <-follower; err == nil || err.Error() != "scatter failed" {
		t.Fatalf("waiting follower got %v, want the leader's error", err)
	}
	if c.Len() != 0 {
		t.Fatalf("errored value was cached (%d entries)", c.Len())
	}
	calls := 0
	if v, how, err := c.Do("q", true, value("fresh", &calls)); err != nil || how != Miss || v != "fresh" || calls != 1 {
		t.Fatalf("later caller = %q, %v, %v (calls %d); want a fresh computation", v, how, err, calls)
	}
}

func TestLeaderPanicRetiresFlight(t *testing.T) {
	var joins atomic.Int64
	c := New[string, string](0, Hooks{Join: func() { joins.Add(1) }})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("q", false, func() (string, error) {
			<-release
			panic("boom")
		})
	}()
	waitFor(func() bool { return c.Inflight() > 0 })
	follower := make(chan error, 1)
	go func() {
		_, _, err := c.Do("q", false, value("unused", new(int)))
		follower <- err
	}()
	waitFor(func() bool { return joins.Load() > 0 })
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("leader panic = %v, want it re-raised", r)
	}
	if err := <-follower; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("follower error = %v, want a rank-panicked error", err)
	}
	if c.Inflight() != 0 {
		t.Fatalf("flights = %d after the panic, want 0", c.Inflight())
	}
}

func TestResizeEmptiesLRU(t *testing.T) {
	c := New[string, string](2, Hooks{})
	c.Do("a", true, value("a", new(int)))
	c.Resize(8)
	if c.Len() != 0 {
		t.Fatalf("resize kept %d entries", c.Len())
	}
	c.Resize(0)
	if _, how, _ := c.Do("a", true, value("a", new(int))); how != Bypass {
		t.Fatalf("disabled LRU outcome %v, want Bypass", how)
	}
}
