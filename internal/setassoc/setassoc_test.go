package setassoc

import (
	"math/rand"
	"slices"
	"testing"
)

// payload stands in for a cache's per-entry data.
type payload struct {
	pa    uint64
	flags uint64
}

func occupancy[V any](a *Array[V]) int {
	n := 0
	for i := range a.lines {
		if a.lines[i].valid {
			n++
		}
	}
	return n
}

func hits(a *Array[payload], asid uint16, tags ...uint64) []bool {
	var got []bool
	for _, tag := range tags {
		_, ok := a.Lookup(asid, tag)
		got = append(got, ok)
	}
	return got
}

func TestLRUReplacement(t *testing.T) {
	a := New[payload](4, 4) // one set, 4 ways
	for tag := uint64(0); tag < 4; tag++ {
		a.Insert(1, tag, false, payload{pa: tag + 0x100})
	}
	// Touch entries 0..2 so entry 3 is LRU.
	for tag := uint64(0); tag < 3; tag++ {
		if _, ok := a.Lookup(1, tag); !ok {
			t.Fatalf("entry %d missing", tag)
		}
	}
	a.Insert(1, 5, false, payload{pa: 0x500})
	if _, ok := a.Lookup(1, 3); ok {
		t.Error("LRU entry 3 should have been evicted")
	}
	for tag := uint64(0); tag < 3; tag++ {
		if _, ok := a.Lookup(1, tag); !ok {
			t.Errorf("recently used entry %d evicted", tag)
		}
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	a := New[payload](4, 4)
	a.Insert(1, 1, false, payload{pa: 0x2000})
	a.Insert(1, 1, false, payload{pa: 0x9000, flags: 1}) // update in place
	if n := occupancy(a); n != 1 {
		t.Fatalf("occupancy = %d after duplicate insert, want 1", n)
	}
	if v, ok := a.Lookup(1, 1); !ok || v != (payload{pa: 0x9000, flags: 1}) {
		t.Errorf("refreshed entry = %+v ok=%v", v, ok)
	}
}

// TestFreeWayBeatsLRU: an insert takes the first invalid way even when a
// valid way is older, so an invalidated slot is reused before anything is
// evicted.
func TestFreeWayBeatsLRU(t *testing.T) {
	a := New[payload](4, 4)
	for tag := uint64(0); tag < 4; tag++ {
		a.Insert(1, tag, false, payload{})
	}
	a.Invalidate(1, 2) // way 2 is free; way 0 is LRU
	a.Insert(1, 9, false, payload{})
	if got, want := hits(a, 1, 0, 1, 2, 3, 9), []bool{true, true, false, true, true}; !slices.Equal(got, want) {
		t.Errorf("hits(0,1,2,3,9) = %v, want %v", got, want)
	}
	if a.lines[2].tag != 9 {
		t.Errorf("new entry in way with tag %d, want the freed way 2", a.lines[2].tag)
	}
}

// TestLRUTieGoesToLowestWay: the clock gives valid lines distinct stamps,
// so a tie needs equal stamps planted by hand; the victim must then be the
// lowest of the tied ways.
func TestLRUTieGoesToLowestWay(t *testing.T) {
	a := New[payload](4, 4)
	for tag := uint64(0); tag < 4; tag++ {
		a.Insert(1, tag, false, payload{})
	}
	a.lines[1].lastUse = 0
	a.lines[3].lastUse = 0
	a.Insert(1, 9, false, payload{})
	if a.lines[1].tag != 9 || a.lines[3].tag != 3 {
		t.Errorf("tags by way = %d %d %d %d, want 9 in way 1 and 3 kept in way 3",
			a.lines[0].tag, a.lines[1].tag, a.lines[2].tag, a.lines[3].tag)
	}
}

func TestGlobalEntries(t *testing.T) {
	a := New[payload](8, 2)
	a.Insert(1, 7, true, payload{pa: 0x7000})
	a.Insert(1, 8, false, payload{pa: 0x8000})
	if v, ok := a.Lookup(2, 7); !ok || v.pa != 0x7000 {
		t.Errorf("global entry from another ASID: %+v ok=%v", v, ok)
	}
	if _, ok := a.Lookup(2, 8); ok {
		t.Error("non-global entry hit from another ASID")
	}
	a.Flush(1, false, true)
	if got, want := hits(a, 1, 7, 8), []bool{true, false}; !slices.Equal(got, want) {
		t.Errorf("after Flush(keepGlobal) hits(7,8) = %v, want %v", got, want)
	}
	a.Flush(0, true, true)
	if _, ok := a.Lookup(1, 7); !ok {
		t.Error("global entry dropped by Flush(all, keepGlobal)")
	}
	a.Flush(0, true, false)
	if occupancy(a) != 0 {
		t.Error("Flush(all) left entries behind")
	}
}

func TestFlushAndInvalidateByASID(t *testing.T) {
	a := New[payload](8, 2)
	a.Insert(1, 5, false, payload{})
	a.Insert(2, 5, false, payload{})
	a.Invalidate(2, 5)
	if _, ok := a.Lookup(1, 5); !ok {
		t.Error("Invalidate(2, 5) dropped ASID 1's entry")
	}
	a.Insert(2, 6, false, payload{})
	a.Flush(1, false, false)
	if got, want := append(hits(a, 1, 5), hits(a, 2, 6)...), []bool{false, true}; !slices.Equal(got, want) {
		t.Errorf("after Flush(1) hits = %v, want %v", got, want)
	}
}

// TestResetReplaysFreshArray: after a Reset, the same operations pick the
// same victims and leave the same lines as on a freshly built array.
func TestResetReplaysFreshArray(t *testing.T) {
	run := func(a *Array[payload], seed int64) []bool {
		rng := rand.New(rand.NewSource(seed))
		var out []bool
		for i := 0; i < 2000; i++ {
			asid, tag := uint16(rng.Intn(2)), uint64(rng.Intn(40))
			switch rng.Intn(4) {
			case 0, 1:
				a.Insert(asid, tag, tag%7 == 0, payload{pa: uint64(i)})
			case 2:
				_, ok := a.Lookup(asid, tag)
				out = append(out, ok)
			case 3:
				a.Invalidate(asid, tag)
			}
		}
		return out
	}
	fresh := New[payload](16, 4)
	want := run(fresh, 1)
	reused := New[payload](16, 4)
	run(reused, 2)
	reused.Reset()
	if got := run(reused, 1); !slices.Equal(got, want) {
		t.Error("hit/miss sequence after Reset differs from a fresh array")
	}
	if !slices.Equal(reused.lines, fresh.lines) || reused.clock != fresh.clock {
		t.Error("array state after Reset and replay differs from a fresh array")
	}
}

// TestLenCountsValidLines: the valid-line count the empty-array shortcut
// relies on equals the number of valid lines after any mix of operations,
// including duplicate tags under the global bit, flushes and a Reset.
func TestLenCountsValidLines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New[payload](16, 4)
	for i := 0; i < 5000; i++ {
		asid, tag := uint16(rng.Intn(3)), uint64(rng.Intn(40))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			a.Insert(asid, tag, rng.Intn(5) == 0, payload{pa: uint64(i)})
		case 4, 5:
			a.Lookup(asid, tag)
		case 6, 7:
			a.Invalidate(asid, tag)
		case 8:
			a.Flush(asid, rng.Intn(4) == 0, rng.Intn(2) == 0)
		case 9:
			if rng.Intn(50) == 0 {
				a.Reset()
			}
		}
		if a.Len() != occupancy(a) {
			t.Fatalf("step %d: Len() = %d, %d lines valid", i, a.Len(), occupancy(a))
		}
	}
	a.Reset()
	if a.Len() != 0 || occupancy(a) != 0 {
		t.Errorf("after Reset: Len() = %d, %d lines valid", a.Len(), occupancy(a))
	}
}

// TestNonPowerOfTwoSets exercises the modulo set index: 12 entries, 4
// ways is 3 sets, and tags congruent mod 3 compete for one set.
func TestNonPowerOfTwoSets(t *testing.T) {
	a := New[payload](12, 4)
	if a.sets != 3 || a.setsPow2 {
		t.Fatalf("sets = %d pow2=%v, want 3/false", a.sets, a.setsPow2)
	}
	a.Insert(1, 1, false, payload{}) // set 1
	for tag := uint64(0); tag <= 12; tag += 3 {
		a.Insert(1, tag, false, payload{}) // five tags into set 0
	}
	if got, want := hits(a, 1, 0, 3, 6, 9, 12, 1), []bool{false, true, true, true, true, true}; !slices.Equal(got, want) {
		t.Errorf("hits(0,3,6,9,12,1) = %v, want %v", got, want)
	}
}

func TestGeometryClamps(t *testing.T) {
	for _, c := range []struct{ entries, ways, sets, wantWays int }{
		{0, 0, 1, 1},
		{4, 8, 1, 4}, // more ways than entries: fully associative
		{32, 4, 8, 4},
	} {
		a := New[payload](c.entries, c.ways)
		if a.sets != c.sets || a.ways != c.wantWays || len(a.lines) != c.sets*c.wantWays {
			t.Errorf("New(%d, %d): sets=%d ways=%d lines=%d", c.entries, c.ways, a.sets, a.ways, len(a.lines))
		}
	}
}

func TestArrayZeroAllocs(t *testing.T) {
	a := New[payload](64, 4)
	var tag uint64
	if n := testing.AllocsPerRun(1000, func() {
		tag++
		a.Insert(1, tag, false, payload{pa: tag})
		a.Lookup(1, tag)
		a.Invalidate(1, tag-1)
	}); n != 0 {
		t.Errorf("Insert/Lookup/Invalidate allocate %v times per op, want 0", n)
	}
}

// benchHit defeats dead-code elimination.
var benchHit bool

// BenchmarkArrayLookup measures a hit in a 4-way set, the operation behind
// every TLB and PWC probe.
func BenchmarkArrayLookup(b *testing.B) {
	a := New[payload](64, 4)
	for tag := uint64(0); tag < 64; tag++ {
		a.Insert(1, tag, false, payload{pa: tag})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchHit = a.Lookup(1, uint64(i)&63)
	}
	if !benchHit {
		b.Fatal("lookup missed")
	}
}

// BenchmarkArrayInsert measures a fill that evicts the LRU way.
func BenchmarkArrayInsert(b *testing.B) {
	a := New[payload](64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Insert(1, uint64(i)&1023, false, payload{pa: uint64(i)})
	}
}
