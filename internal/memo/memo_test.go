package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// value returns a compute that counts its calls, charges size and returns v.
func value(calls *atomic.Int64, v int, size int64) func(func(int64)) (int, error) {
	return func(charge func(int64)) (int, error) {
		calls.Add(1)
		if charge != nil {
			charge(size)
		}
		return v, nil
	}
}

func TestDoHitMissDedupCounts(t *testing.T) {
	c := New[string, int](-1)
	var calls atomic.Int64
	for _, k := range []string{"a", "a", "b", "a"} {
		if _, err := c.Do(k, value(&calls, len(k), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2", n)
	}
	if s := c.Stats(); s != (Stats{Hits: 2, Misses: 2, Bytes: 20, Entries: 2}) {
		t.Fatalf("stats = %+v", s)
	}

	// An ask for an entry that is computed but not yet charged attaches to
	// it: deduped, not a hit.
	var charge func(int64)
	if _, err := c.Do("late", func(ch func(int64)) (int, error) { charge = ch; return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Do("late", value(&calls, 2, 10)); v != 1 {
		t.Fatalf("deduped ask got %d, want the first compute's 1", v)
	}
	charge(5)
	c.Do("late", value(&calls, 2, 10))
	if s := c.Stats(); s.Deduped != 1 || s.Hits != 3 || s.Bytes != 25 {
		t.Fatalf("after late charge stats = %+v, want 1 deduped / 3 hits / 25 bytes", s)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[string, int](-1)
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := c.Do("k", func(charge func(int64)) (int, error) {
		calls.Add(1)
		charge(7) // charged before failing: the bytes must be released
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("failed compute left %+v", s)
	}
	v, err := c.Do("k", value(&calls, 9, 1))
	if err != nil || v != 9 {
		t.Fatalf("recompute = %d, %v; want 9, nil", v, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be cached)", n)
	}
}

func TestDoPanicNotCached(t *testing.T) {
	c := New[string, int](-1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute's panic did not reach the caller")
			}
		}()
		c.Do("k", func(func(int64)) (int, error) { panic("boom") })
	}()
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("panicked compute left %d entries", s.Entries)
	}
	var calls atomic.Int64
	if v, err := c.Do("k", value(&calls, 3, 1)); err != nil || v != 3 {
		t.Fatalf("recompute = %d, %v; want 3, nil", v, err)
	}
}

func TestBudgetZeroStoresNothing(t *testing.T) {
	c := New[string, int](0)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		c.Do("k", func(charge func(int64)) (int, error) {
			if charge != nil {
				t.Error("disabled cache passed a charge")
			}
			calls.Add(1)
			return 0, nil
		})
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("compute ran %d times with the cache disabled, want 3", n)
	}
	if s := c.Stats(); s != (Stats{Misses: 3}) {
		t.Fatalf("disabled cache stats = %+v, want 3 misses only", s)
	}

	// Disabling a populated cache evicts everything charged.
	c.SetBudget(-1)
	c.Do("a", value(&calls, 1, 10))
	c.SetBudget(0)
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("SetBudget(0) left %+v", s)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	c := New[string, int](30)
	var calls atomic.Int64
	ask := func(k string) { c.Do(k, value(&calls, 0, 10)) }
	ask("a")
	ask("b")
	ask("c")
	ask("a") // b is now least recently used
	ask("d") // evicts b
	ask("c")
	ask("e") // evicts a
	if s := c.Stats(); s.Bytes != 30 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 30 bytes in 3 entries", s)
	}
	before := calls.Load()
	for _, k := range []string{"c", "d", "e"} {
		ask(k)
	}
	if calls.Load() != before {
		t.Fatal("a survivor was evicted")
	}
	ask("b")
	ask("a")
	if n := calls.Load() - before; n != 2 {
		t.Fatalf("%d of the two evicted keys recomputed, want 2", n)
	}

	// Unbounded never evicts.
	c.SetBudget(-1)
	for i := 0; i < 10; i++ {
		ask(fmt.Sprint(i))
	}
	if s := c.Stats(); s.Entries != 13 {
		t.Fatalf("unbounded cache holds %d entries, want 13", s.Entries)
	}
}

func TestUnchargedNeverEvicted(t *testing.T) {
	c := New[string, int](10)
	var charge func(int64)
	c.Do("pending", func(ch func(int64)) (int, error) { charge = ch; return 1, nil })
	var calls atomic.Int64
	c.Do("x", value(&calls, 0, 50)) // over budget alone: kept while charged last
	c.Do("y", value(&calls, 0, 50)) // evicts x, must skip pending
	c.Do("pending", value(&calls, 2, 1))
	if calls.Load() != 2 {
		t.Fatal("uncharged entry was evicted")
	}
	// Charging it now evicts y, the only other charged entry.
	charge(5)
	if s := c.Stats(); s.Bytes != 5 || s.Entries != 1 {
		t.Fatalf("after charge stats = %+v, want only the 5-byte entry", s)
	}
}

func TestLateChargeIgnored(t *testing.T) {
	c := New[string, int](-1)
	var charges []func(int64)
	stash := func(ch func(int64)) (int, error) { charges = append(charges, ch); return 0, nil }

	// Reset while in flight: the charge belongs to a dropped entry and must
	// not land on the fresh entry now under the same key.
	c.Do("k", stash)
	c.Reset()
	c.Do("k", stash)
	charges[0](100)
	if s := c.Stats(); s.Bytes != 0 || s.Entries != 1 {
		t.Fatalf("charge after Reset counted: %+v", s)
	}

	// Only an entry's first charge counts.
	charges[1](3)
	charges[1](50)
	if s := c.Stats(); s.Bytes != 3 {
		t.Fatalf("second charge counted: %+v", s)
	}

	// Once evicted, the entry's charge no longer counts.
	c.SetBudget(10)
	var calls atomic.Int64
	c.Do("big", value(&calls, 0, 10)) // evicts k
	charges[1](4)
	if s := c.Stats(); s.Bytes != 10 || s.Entries != 1 {
		t.Fatalf("charge after eviction counted: %+v", s)
	}
}

func TestResetRewindsClock(t *testing.T) {
	c := New[string, int](-1)
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		c.Do(fmt.Sprint(i), value(&calls, i, 1))
	}
	c.Do("0", value(&calls, 0, 1))
	if c.clock != 6 {
		t.Fatalf("clock = %d after 6 asks, want 6", c.clock)
	}
	c.Reset()
	if c.clock != 0 {
		t.Fatalf("clock = %d after Reset, want 0", c.clock)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats after Reset = %+v, want zero", s)
	}
	c.Do("fresh", value(&calls, 0, 1))
	if e := c.entries["fresh"]; e.lastUse != 1 {
		t.Fatalf("first post-Reset entry lastUse = %d, want 1", e.lastUse)
	}
	if s := c.Stats(); s != (Stats{Misses: 1, Bytes: 1, Entries: 1}) {
		t.Fatalf("post-Reset stats = %+v, want 1 miss / 1 entry", s)
	}
}

// TestConcurrentSingleflight is the singleflight contract under -race:
// many goroutines asking for a small key set run one compute per key and
// all observe its result.
func TestConcurrentSingleflight(t *testing.T) {
	c := New[int, string](-1)
	const goroutines, keys = 32, 4
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				v, err := c.Do(k, func(charge func(int64)) (string, error) {
					computes[k].Add(1)
					charge(1)
					return fmt.Sprint("v", k), nil
				})
				if err != nil || v != fmt.Sprint("v", k) {
					t.Errorf("key %d: got %q, %v", k, v, err)
				}
			}
		}()
	}
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
	s := c.Stats()
	if s.Misses != keys || s.Hits+s.Deduped != goroutines*keys-keys {
		t.Errorf("stats = %+v, want %d misses and %d hits+deduped", s, keys, goroutines*keys-keys)
	}
}

// TestDoHitZeroAllocs guards the hit path both caches sit on: a hit must
// not allocate, whatever the key and value types.
func TestDoHitZeroAllocs(t *testing.T) {
	type report struct {
		name     string
		counters [64]uint64
	}
	c := New[string, report](-1)
	compute := func(charge func(int64)) (report, error) {
		charge(1)
		return report{name: "r"}, nil
	}
	c.Do("k", compute)
	if n := testing.AllocsPerRun(1000, func() { c.Do("k", compute) }); n != 0 {
		t.Fatalf("Do hit allocates %.1f times, want 0", n)
	}

	type key struct {
		name string
		a, b [20]int64 // wider than a register-sized capture
	}
	ks := New[key, *report](-1)
	k := key{name: "wide"}
	ks.Do(k, func(charge func(int64)) (*report, error) { charge(1); return &report{}, nil })
	if n := testing.AllocsPerRun(1000, func() {
		ks.Do(k, func(func(int64)) (*report, error) { return nil, nil })
	}); n != 0 {
		t.Fatalf("Do hit with a struct key allocates %.1f times, want 0", n)
	}
}
