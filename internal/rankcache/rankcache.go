// Package rankcache is the serving tiers' one result cache: a bounded LRU
// of completed rankings plus a single-flight table of rankings being
// computed right now. Both the selection service (keyed by analyzed terms
// and snapshot epoch) and the cluster front (keyed by query text and
// topology epoch) rank through it.
//
// Keys carry an epoch, so invalidation is free: a model or topology change
// bumps the epoch, new requests key into new entries, and old entries age
// out of the LRU on their own. A flight exists only while its leader
// computes; an error reaches only the callers already waiting on it and is
// never cached, so a later identical request computes fresh.
//
// Coalescing is correctness-neutral: ranking is deterministic for a fixed
// key, so a follower's result is bit-identical to what it would have
// computed itself. That is why a Cache with capacity 0 — no LRU — still
// single-flights.
package rankcache

import (
	"fmt"
	"sync"
)

// Outcome says how Do served a request.
type Outcome uint8

const (
	// Bypass: the LRU was not consulted (admit was false or the capacity
	// is 0); the result was computed or shared from a flight.
	Bypass Outcome = iota
	// Hit: served from the LRU.
	Hit
	// Miss: the LRU missed and this caller led the computation.
	Miss
	// Joined: the LRU missed and this caller waited on another caller's
	// computation of the same key.
	Joined
)

// Hooks observe a Cache. Each is optional and runs outside the cache's
// lock.
type Hooks struct {
	// Hit runs for an LRU hit, and for an admitting follower whose flight
	// succeeded (it is served without computing, as a hit is).
	Hit func()
	// Miss runs when an admitting caller misses the LRU and leads.
	Miss func()
	// Join runs when a caller joins another caller's flight, before it
	// waits — so an observer can tell a follower is parked.
	Join func()
	// Flights runs with +1 when a flight starts and -1 when it ends, so a
	// gauge that adds the deltas tracks the live flights exactly, in any
	// interleaving.
	Flights func(delta int)
}

// Cache is an LRU of completed values plus a single-flight table, both
// keyed by K. Values are shared between the LRU, the flight's followers
// and every later hit: callers must treat them as read-only and copy
// before handing them out. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	hooks Hooks

	mu      sync.Mutex
	cap     int
	entries map[K]*entry[K, V]
	head    *entry[K, V] // most recently used
	tail    *entry[K, V]
	flights map[K]*flight[V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// flight is one computation in progress. The leader sets val/err and then
// closes ready; followers read them after ready closes.
type flight[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// New returns a Cache holding at most capacity completed values;
// capacity <= 0 disables the LRU but keeps single-flight.
func New[K comparable, V any](capacity int, hooks Hooks) *Cache[K, V] {
	c := &Cache[K, V]{hooks: hooks, flights: make(map[K]*flight[V])}
	c.Resize(capacity)
	return c
}

// Resize empties the LRU and sets its capacity (<= 0 disables it).
// Flights in progress are unaffected.
func (c *Cache[K, V]) Resize(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = max(capacity, 0)
	c.entries = make(map[K]*entry[K, V], c.cap)
	c.head, c.tail = nil, nil
}

// Len reports the number of values in the LRU.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Inflight reports the number of live flights.
func (c *Cache[K, V]) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// Do returns the value for key. With admit set and the LRU enabled it
// first probes the LRU, and admits a successful result it did not find
// there. Otherwise — or on a miss — it joins the key's flight, or leads a
// new one by calling compute. A leader that panics publishes the panic as
// its flight's error, so no follower waits forever, and then re-panics.
func (c *Cache[K, V]) Do(key K, admit bool, compute func() (V, error)) (V, Outcome, error) {
	how := Bypass
	if admit {
		v, hit, lru := c.probe(key)
		switch {
		case hit:
			c.hook(c.hooks.Hit)
			return v, Hit, nil
		case lru:
			how = Miss
		default:
			admit = false
		}
	}
	f, leader := c.join(key)
	if !leader {
		c.hook(c.hooks.Join)
		<-f.ready
		if admit {
			how = Joined
			if f.err == nil {
				// The leader may not have admitted (a batch leads without
				// the LRU); this caller wants the value cached.
				c.add(key, f.val)
				c.hook(c.hooks.Hit)
			}
		}
		return f.val, how, f.err
	}
	if admit {
		c.hook(c.hooks.Miss)
	}
	v, err := c.lead(key, f, compute)
	if err == nil && admit {
		c.add(key, v)
	}
	return v, how, err
}

// lead runs compute as key's flight leader and retires the flight exactly
// once, even when compute panics.
func (c *Cache[K, V]) lead(key K, f *flight[V], compute func() (V, error)) (v V, err error) {
	done := false
	defer func() {
		if done {
			return
		}
		r := recover()
		c.retire(key, f, v, fmt.Errorf("rank panicked: %v", r))
		if r != nil {
			panic(r)
		}
	}()
	v, err = compute()
	done = true
	c.retire(key, f, v, err)
	return v, err
}

func (c *Cache[K, V]) hook(fn func()) {
	if fn != nil {
		fn()
	}
}

func (c *Cache[K, V]) flightsChanged(delta int) {
	if c.hooks.Flights != nil {
		c.hooks.Flights(delta)
	}
}

// probe is the hit path: the cached value for key, refreshed to most
// recently used, and whether the LRU is enabled at all. It allocates
// nothing — one map lookup and two pointer splices under the lock.
//
//lint:hotpath
func (c *Cache[K, V]) probe(key K) (v V, hit, lru bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap == 0 {
		return v, false, false
	}
	e := c.entries[key]
	if e == nil {
		return v, false, true
	}
	c.moveToFront(e)
	return e.val, true, true
}

// peek is the flight table's fast path: the live flight for key, or nil.
// It allocates nothing — one map lookup under the lock.
//
//lint:hotpath
func (c *Cache[K, V]) peek(key K) *flight[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flights[key]
}

// join returns key's flight and whether the caller leads it. A leader
// must retire the flight exactly once.
func (c *Cache[K, V]) join(key K) (*flight[V], bool) {
	if f := c.peek(key); f != nil {
		return f, false
	}
	c.mu.Lock()
	if f := c.flights[key]; f != nil {
		// Another caller started the same key between peek and this lock.
		c.mu.Unlock()
		return f, false
	}
	f := &flight[V]{ready: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.flightsChanged(+1)
	return f, true
}

// retire publishes a leader's result and removes its flight: followers
// unblock, and the next identical request starts fresh (or hits the LRU).
func (c *Cache[K, V]) retire(key K, f *flight[V], v V, err error) {
	f.val, f.err = v, err
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	c.flightsChanged(-1)
	close(f.ready)
}

// add installs (or refreshes) a completed value, evicting from the LRU
// tail past capacity. Re-adding a key refreshes it in place: values for
// one key are identical by construction.
func (c *Cache[K, V]) add(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap == 0 {
		return
	}
	if e := c.entries[key]; e != nil {
		e.val = v
		c.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: key, val: v}
	c.entries[key] = e
	c.pushFront(e)
	for len(c.entries) > c.cap {
		delete(c.entries, c.tail.key)
		c.unlink(c.tail)
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
