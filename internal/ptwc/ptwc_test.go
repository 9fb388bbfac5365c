package ptwc

import (
	"math/rand"
	"testing"
)

func TestPWCDeepestHitWins(t *testing.T) {
	p := New(DefaultConfig())
	va := uint64(0x7f12_3456_7000)
	p.Insert(1, va, 1, 0x1000, false)
	p.Insert(1, va, 2, 0x2000, false)
	p.Insert(1, va, 3, 0x3000, true)
	ptr, level, nested, ok := p.Lookup(1, va)
	if !ok || level != 3 || ptr != 0x3000 || !nested {
		t.Fatalf("Lookup = ptr %#x level %d nested %v ok %v; want deepest", ptr, level, nested, ok)
	}
	// A different VA sharing only the top-level prefix hits the skip-1 array.
	va2 := va ^ (1 << 30) // change the level-1 index
	ptr, level, nested, ok = p.Lookup(1, va2)
	if !ok || level != 1 || ptr != 0x1000 || nested {
		t.Fatalf("prefix lookup = ptr %#x level %d nested %v ok %v", ptr, level, nested, ok)
	}
}

func TestPWCPrefixSharing(t *testing.T) {
	p := New(DefaultConfig())
	va := uint64(0x7f12_3456_7000)
	p.Insert(1, va, 3, 0x3000, false)
	// Same 2M region (same indices at levels 0..2) must hit skip-3.
	same := va | 0x1ff000
	if _, level, _, ok := p.Lookup(1, same); !ok || level != 3 {
		t.Errorf("same-region lookup level=%d ok=%v, want 3/true", level, ok)
	}
	// Different level-2 index must miss entirely.
	diff := va ^ (1 << 21)
	if _, _, _, ok := p.Lookup(1, diff); ok {
		t.Error("different PD index should miss")
	}
}

func TestPWCASIDSeparationAndFlush(t *testing.T) {
	p := New(DefaultConfig())
	va := uint64(0x1000)
	p.Insert(1, va, 2, 0xaaa000, false)
	p.Insert(2, va, 2, 0xbbb000, false)
	ptr, _, _, ok := p.Lookup(2, va)
	if !ok || ptr != 0xbbb000 {
		t.Fatalf("asid 2 lookup = %#x ok=%v", ptr, ok)
	}
	p.FlushASID(2)
	if _, _, _, ok := p.Lookup(2, va); ok {
		t.Error("asid 2 survived FlushASID")
	}
	if _, _, _, ok := p.Lookup(1, va); !ok {
		t.Error("asid 1 dropped by FlushASID(2)")
	}
	p.FlushAll()
	if _, _, _, ok := p.Lookup(1, va); ok {
		t.Error("entry survived FlushAll")
	}
}

func TestPWCInvalidateVA(t *testing.T) {
	p := New(DefaultConfig())
	va := uint64(0x7f12_3456_7000)
	for l := 1; l <= 3; l++ {
		p.Insert(1, va, l, uint64(l)<<12, false)
	}
	p.InvalidateVA(1, va)
	if _, _, _, ok := p.Lookup(1, va); ok {
		t.Error("entries survived InvalidateVA")
	}
}

func TestPWCStats(t *testing.T) {
	p := New(DefaultConfig())
	p.Lookup(1, 0x1000) // miss
	p.Insert(1, 0x1000, 2, 0x2000, false)
	p.Lookup(1, 0x1000) // hit at depth 2
	s := p.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.HitDepth[1] != 1 {
		t.Errorf("stats = %+v", s)
	}
	p.ResetStats()
	if p.Stats() != (Stats{}) {
		t.Error("ResetStats")
	}
}

func TestPWCInsertInvalidLevelPanics(t *testing.T) {
	p := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("Insert level 0 did not panic")
		}
	}()
	p.Insert(1, 0, 0, 0, false)
}

func TestPWCEvictionLRU(t *testing.T) {
	p := New(Config{Entries: [3]int{4, 4, 4}, Ways: 4})
	// Fill the skip-3 array (single set of 4 ways) with 4 distinct tags.
	vas := []uint64{0, 1 << 21, 2 << 21, 3 << 21}
	for i, va := range vas {
		p.Insert(1, va, 3, uint64(i+1)<<12, false)
	}
	// Touch first three, then insert a fifth: the fourth is evicted.
	for _, va := range vas[:3] {
		if _, _, _, ok := p.Lookup(1, va); !ok {
			t.Fatal("warm entry missing")
		}
	}
	p.Insert(1, 4<<21, 3, 0x9000, false)
	if _, _, _, ok := p.Lookup(1, vas[3]); ok {
		t.Error("LRU victim survived")
	}
	for _, va := range vas[:3] {
		if _, _, _, ok := p.Lookup(1, va); !ok {
			t.Errorf("recently used entry %#x evicted", va)
		}
	}
}

func TestNestedTLBBasic(t *testing.T) {
	n := NewNestedTLB(16, 4)
	if _, _, ok := n.Lookup(1, 0x5123); ok {
		t.Fatal("hit in empty NTLB")
	}
	n.Insert(1, 0x5123, 0xabc000, true)
	hpa, w, ok := n.Lookup(1, 0x5fff) // same 4K gPA page
	if !ok || hpa != 0xabc000 || !w {
		t.Fatalf("lookup = %#x writable=%v ok=%v", hpa, w, ok)
	}
	if _, _, ok := n.Lookup(1, 0x6000); ok {
		t.Error("adjacent page should miss")
	}
	if _, _, ok := n.Lookup(2, 0x5123); ok {
		t.Error("cross-VM hit")
	}
	s := n.Stats()
	if s.Lookups != 4 || s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNestedTLBWritableBit(t *testing.T) {
	n := NewNestedTLB(16, 4)
	n.Insert(1, 0x1000, 0x2000, false) // host COW-protected page
	_, w, ok := n.Lookup(1, 0x1000)
	if !ok || w {
		t.Fatalf("writable=%v ok=%v, want read-only hit", w, ok)
	}
	n.Insert(1, 0x1000, 0x2000, true) // after host COW resolution
	_, w, _ = n.Lookup(1, 0x1000)
	if !w {
		t.Error("writable bit not refreshed")
	}
}

func TestNestedTLBInvalidateAndFlush(t *testing.T) {
	n := NewNestedTLB(16, 4)
	n.Insert(1, 0x1000, 0x2000, true)
	n.Insert(1, 0x3000, 0x4000, true)
	n.Insert(2, 0x1000, 0x9000, true)
	n.InvalidateGPA(1, 0x1000)
	if _, _, ok := n.Lookup(1, 0x1000); ok {
		t.Error("survived InvalidateGPA")
	}
	if _, _, ok := n.Lookup(1, 0x3000); !ok {
		t.Error("unrelated entry dropped")
	}
	n.FlushAll()
	if _, _, ok := n.Lookup(2, 0x1000); ok {
		t.Error("survived FlushAll")
	}
	n.ResetStats()
	if n.Stats() != (Stats{}) {
		t.Error("ResetStats")
	}
}

// TestPWCCoherenceProperty: lookups never return a pointer that was not the
// most recent insert for that (asid, prefix, level).
func TestPWCCoherenceProperty(t *testing.T) {
	p := New(Config{Entries: [3]int{8, 8, 8}, Ways: 2})
	rng := rand.New(rand.NewSource(11))
	type key struct {
		level int
		tag   uint64
	}
	truth := map[key]uint64{}
	for i := 0; i < 3000; i++ {
		va := uint64(rng.Intn(64)) << 21 // vary level-0..2 indices a little
		level := 1 + rng.Intn(3)
		switch rng.Intn(3) {
		case 0:
			ptr := uint64(rng.Intn(1<<20)) << 12
			p.Insert(1, va, level, ptr, rng.Intn(2) == 0)
			truth[key{level, tagFor(va, level)}] = ptr
		case 1:
			p.InvalidateVA(1, va)
			for l := 1; l <= 3; l++ {
				delete(truth, key{l, tagFor(va, l)})
			}
		case 2:
			ptr, lvl, _, ok := p.Lookup(1, va)
			if !ok {
				continue
			}
			want, live := truth[key{lvl, tagFor(va, lvl)}]
			if !live {
				t.Fatalf("hit on invalidated prefix (va %#x level %d)", va, lvl)
			}
			if ptr != want {
				t.Fatalf("stale pointer %#x, want %#x", ptr, want)
			}
		}
	}
}
