// Package memo is the process's content-addressed memo store: a map from a
// comparable key to a computed value, shared by every goroutine that asks
// for the same key. Both of the harness's caches sit on it —
// workload.SharedStream's generated op streams and repcache's simulation
// reports — and each keeps only what is its own: its key and what it does
// on a miss.
//
// A Cache owns four things once:
//
//   - per-key singleflight: concurrent askers of one key run one compute
//     and share its result;
//   - a byte-budget LRU. An entry is charged its size once its value is
//     known, and eviction skips uncharged (still computing) entries, whose
//     size is unknown and whose waiters hold a reference anyway;
//   - one counter set (Stats);
//   - the rule that errors are never cached: a failed compute is handed to
//     every waiter of that flight and the next ask computes again. A
//     compute that panics is dropped the same way; its waiters get an
//     error and the panic continues in the goroutine that ran it.
//
// The charge may arrive after Do returns. A pipelined producer returns its
// value at once and charges its final size when it finishes; a charge for
// an entry that was evicted or Reset in the meantime is ignored.
//
// Concurrency contract: all methods are safe for concurrent use. Do never
// calls compute twice for one key unless the first compute failed or the
// entry was evicted or Reset in between.
package memo

import (
	"errors"
	"sync"
)

// Stats is a point-in-time copy of a cache's counters. Hits counts asks
// answered by a charged entry, Misses asks that computed, and Deduped asks
// that attached to a compute still in flight (uncharged). Bytes is the
// total charged and Entries the number of entries held, in flight ones
// included.
type Stats struct {
	Hits, Misses, Deduped uint64
	Bytes                 int64
	Entries               int
}

// Cache memoizes values of type V under keys of type K. Create it with
// New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	clock   uint64 // LRU clock, advanced by every cached ask
	budget  int64
	stats   Stats // Entries is filled in by Stats()
}

// entry is one cache slot. once gates the single compute; bytes stays 0
// until the entry is charged.
type entry[V any] struct {
	once    sync.Once
	val     V
	err     error
	bytes   int64
	lastUse uint64
}

// New returns an empty cache with the given byte budget (see SetBudget).
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{entries: make(map[K]*entry[V]), budget: budget}
}

// Do returns the value memoized under key, calling compute at most once
// per key across all concurrent callers; later callers block until the
// first compute returns and share its result. compute reports the entry's
// size by calling charge, before or after it returns; until then the entry
// cannot be evicted. With the cache disabled (budget 0) every Do calls
// compute with a nil charge and stores nothing, so compute can skip work
// that only pays when its result is kept.
func (c *Cache[K, V]) Do(key K, compute func(charge func(bytes int64)) (V, error)) (V, error) {
	c.mu.Lock()
	if c.budget == 0 {
		c.stats.Misses++
		c.mu.Unlock()
		return compute(nil)
	}
	e, ok := c.entries[key]
	switch {
	case !ok:
		c.stats.Misses++
		e = &entry[V]{}
		c.entries[key] = e
	case e.bytes != 0:
		c.stats.Hits++
	default:
		c.stats.Deduped++
	}
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()

	e.once.Do(func() { c.fill(key, e, compute) })
	return e.val, e.err
}

// errPanicked is what the waiters of a flight whose compute panicked
// receive; the panic itself propagates in the goroutine that ran compute.
var errPanicked = errors.New("memo: compute panicked")

// fill runs compute for e and drops e again if compute failed or panicked.
// It is a separate function so that only a miss pays for the charge
// closure, which escapes into compute.
func (c *Cache[K, V]) fill(key K, e *entry[V], compute func(func(int64)) (V, error)) {
	e.err = errPanicked // replaced when compute returns
	defer func() {
		if e.err == nil {
			return
		}
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
			c.stats.Bytes -= e.bytes
		}
		c.mu.Unlock()
	}()
	e.val, e.err = compute(func(n int64) { c.charge(key, e, n) })
}

// charge records e's size and evicts down to the budget. Only the first
// charge of an entry still in the map counts.
func (c *Cache[K, V]) charge(key K, e *entry[V], n int64) {
	if n < 1 {
		n = 1 // 0 means uncharged
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != e || e.bytes != 0 {
		return
	}
	e.bytes = n
	c.stats.Bytes += n
	c.evictLocked(e)
}

// evictLocked drops charged entries, least recently used first, until the
// cache fits its budget. keep, if non-nil, is never evicted (the entry
// being charged).
func (c *Cache[K, V]) evictLocked(keep *entry[V]) {
	if c.budget < 0 {
		return
	}
	for c.stats.Bytes > c.budget {
		var victimKey K
		var victim *entry[V]
		for k, e := range c.entries {
			if e == keep || e.bytes == 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victimKey)
		c.stats.Bytes -= victim.bytes
	}
}

// SetBudget sets the byte budget. budget == 0 disables the cache (every Do
// computes); budget < 0 removes the bound. Shrinking evicts immediately.
func (c *Cache[K, V]) SetBudget(budget int64) {
	c.mu.Lock()
	c.budget = budget
	c.evictLocked(nil)
	c.mu.Unlock()
}

// Reset drops every entry and rewinds all state — counters and the LRU
// clock included — so the cache behaves exactly as a fresh one. The
// budget survives.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.entries = make(map[K]*entry[V])
	c.clock = 0
	c.stats = Stats{}
	c.mu.Unlock()
}

// Stats reports the cache's counters and current footprint.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}
