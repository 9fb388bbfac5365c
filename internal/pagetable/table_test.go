package pagetable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"agilepaging/internal/memsim"
)

func newHostTable(t *testing.T) (*Table, *memsim.Memory) {
	t.Helper()
	mem := memsim.New(64 << 20)
	tbl, err := New(mem, HostSpace{Mem: mem})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tbl, mem
}

func TestIndexAt(t *testing.T) {
	// VA with distinct index at each level: L0=1, L1=2, L2=3, L3=4.
	va := uint64(1)<<39 | uint64(2)<<30 | uint64(3)<<21 | uint64(4)<<12
	for level, want := range []int{1, 2, 3, 4} {
		if got := IndexAt(va, level); got != want {
			t.Errorf("IndexAt(level %d) = %d, want %d", level, got, want)
		}
	}
}

func TestMapLookup4K(t *testing.T) {
	tbl, _ := newHostTable(t)
	va, pa := uint64(0x7f1234567000), uint64(0x00000abcd000)
	if err := tbl.Map(va, pa, Size4K, FlagWrite|FlagUser); err != nil {
		t.Fatalf("Map: %v", err)
	}
	r, err := tbl.Lookup(va | 0x123)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if r.PA != pa|0x123 {
		t.Errorf("PA = %#x, want %#x", r.PA, pa|0x123)
	}
	if r.Size != Size4K || r.Level != 3 {
		t.Errorf("size/level = %v/%d, want 4K/3", r.Size, r.Level)
	}
	if !r.Entry.Writable() || !r.Entry.User() {
		t.Errorf("flags not preserved: %v", r.Entry)
	}
}

func TestMapLookupLargePages(t *testing.T) {
	tbl, _ := newHostTable(t)
	if err := tbl.Map(0x40000000, 0x80000000, Size1G, FlagWrite); err != nil {
		t.Fatalf("Map 1G: %v", err)
	}
	if err := tbl.Map(0x7f0000200000, 0x100200000, Size2M, FlagWrite); err != nil {
		t.Fatalf("Map 2M: %v", err)
	}
	r, err := tbl.Lookup(0x40000000 + 0x12345678)
	if err != nil {
		t.Fatalf("Lookup 1G: %v", err)
	}
	if r.Size != Size1G || r.PA != 0x80000000+0x12345678 {
		t.Errorf("1G lookup = %+v", r)
	}
	if !r.Entry.Huge() {
		t.Error("1G entry missing PS bit")
	}
	r, err = tbl.Lookup(0x7f0000200000 + 0x54321)
	if err != nil {
		t.Fatalf("Lookup 2M: %v", err)
	}
	if r.Size != Size2M || r.PA != 0x100200000+0x54321 {
		t.Errorf("2M lookup = %+v", r)
	}
}

func TestMapErrors(t *testing.T) {
	tbl, _ := newHostTable(t)
	if err := tbl.Map(0x1001, 0x2000, Size4K, 0); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned va: err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x2001, Size4K, 0); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned pa: err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := tbl.Map(0x1000, 0x3000, Size4K, 0); !errors.Is(err, ErrAlreadyMapped) {
		t.Errorf("double map: err = %v", err)
	}
	// Mapping a 4K page under an existing 1G page must fail.
	if err := tbl.Map(0x40000000, 0x80000000, Size1G, 0); err != nil {
		t.Fatalf("Map 1G: %v", err)
	}
	if err := tbl.Map(0x40000000+0x5000, 0x9000, Size4K, 0); !errors.Is(err, ErrSplinter) {
		t.Errorf("map under huge: err = %v", err)
	}
}

func TestLookupNotMapped(t *testing.T) {
	tbl, _ := newHostTable(t)
	if _, err := tbl.Lookup(0xdead000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("err = %v, want ErrNotMapped", err)
	}
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	// Same L3 table, different slot.
	if _, err := tbl.Lookup(0x2000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("err = %v, want ErrNotMapped", err)
	}
}

func TestUnmap(t *testing.T) {
	tbl, _ := newHostTable(t)
	if err := tbl.Map(0x1000, 0x2000, Size4K, FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x1000, Size4K); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if _, err := tbl.Lookup(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("after unmap: err = %v", err)
	}
	if err := tbl.Unmap(0x1000, Size4K); !errors.Is(err, ErrNotMapped) {
		t.Errorf("double unmap: err = %v", err)
	}
}

func TestRemap(t *testing.T) {
	tbl, _ := newHostTable(t)
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remap(0x1000, 0x9000, Size4K, FlagWrite); err != nil {
		t.Fatalf("Remap: %v", err)
	}
	r, err := tbl.Lookup(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.PA != 0x9000 || !r.Entry.Writable() {
		t.Errorf("remapped entry = %+v", r)
	}
	if err := tbl.Remap(0x5000, 0x9000, Size4K, 0); !errors.Is(err, ErrNotMapped) {
		t.Errorf("remap unmapped: err = %v", err)
	}
}

func TestSetClearFlags(t *testing.T) {
	tbl, _ := newHostTable(t)
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetFlags(0x1000, FlagAccessed|FlagDirty); err != nil {
		t.Fatal(err)
	}
	r, _ := tbl.Lookup(0x1000)
	if !r.Entry.Accessed() || !r.Entry.Dirty() {
		t.Errorf("flags not set: %v", r.Entry)
	}
	if err := tbl.ClearFlags(0x1000, FlagAccessed); err != nil {
		t.Fatal(err)
	}
	r, _ = tbl.Lookup(0x1000)
	if r.Entry.Accessed() || !r.Entry.Dirty() {
		t.Errorf("after clear: %v", r.Entry)
	}
	// Flags on a large page leaf.
	if err := tbl.Map(0x200000, 0x400000, Size2M, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetFlags(0x200000+0x1000, FlagDirty); err != nil {
		t.Fatalf("SetFlags on 2M interior va: %v", err)
	}
	r, _ = tbl.Lookup(0x200000)
	if !r.Entry.Dirty() {
		t.Error("dirty bit not set on 2M leaf")
	}
}

func TestWriteHookObservesWrites(t *testing.T) {
	tbl, _ := newHostTable(t)
	type rec struct {
		level, idx int
		old, new   Entry
	}
	var got []rec
	tbl.SetWriteHook(func(pageAddr uint64, level, idx int, old, new Entry) {
		got = append(got, rec{level, idx, old, new})
	})
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	// Fresh map touches levels 0,1,2 (intermediate installs) and 3 (leaf).
	if len(got) != 4 {
		t.Fatalf("hook fired %d times, want 4", len(got))
	}
	for i, r := range got {
		if r.level != i {
			t.Errorf("write %d at level %d, want %d", i, r.level, i)
		}
		if r.old != 0 || !r.new.Present() {
			t.Errorf("write %d old/new = %v/%v", i, r.old, r.new)
		}
	}
	got = got[:0]
	// Second map in the same leaf table touches only the leaf level.
	if err := tbl.Map(0x2000, 0x3000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].level != 3 {
		t.Fatalf("second map hook = %+v, want single level-3 write", got)
	}
	tbl.SetWriteHook(nil)
	got = got[:0]
	if err := tbl.Unmap(0x2000, Size4K); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("hook fired after removal")
	}
}

func TestLevelOfAndTablePages(t *testing.T) {
	tbl, _ := newHostTable(t)
	if got := tbl.LevelOf(tbl.Root()); got != 0 {
		t.Errorf("root level = %d", got)
	}
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	pages := tbl.TablePages()
	if len(pages) != 4 {
		t.Fatalf("TablePages has %d pages, want 4", len(pages))
	}
	counts := map[int]int{}
	for _, l := range pages {
		counts[l]++
	}
	for l := 0; l < 4; l++ {
		if counts[l] != 1 {
			t.Errorf("level %d has %d pages, want 1", l, counts[l])
		}
	}
	if tbl.LevelOf(0xdeadbeef000) != -1 {
		t.Error("LevelOf unknown page should be -1")
	}
}

func TestEntryAtAndSetEntryAt(t *testing.T) {
	tbl, _ := newHostTable(t)
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	e, err := tbl.EntryAt(0x1000, 2)
	if err != nil {
		t.Fatalf("EntryAt: %v", err)
	}
	if !e.Present() {
		t.Error("level-2 entry not present")
	}
	// Plant a switching-bit entry at level 2 (what the VMM does to shadow
	// tables).
	sw := MakeEntry(0xabc000, FlagPresent|FlagSwitch)
	if err := tbl.SetEntryAt(0x1000, 2, sw); err != nil {
		t.Fatalf("SetEntryAt: %v", err)
	}
	e, _ = tbl.EntryAt(0x1000, 2)
	if !e.Switching() || e.Addr() != 0xabc000 {
		t.Errorf("switch entry = %v", e)
	}
	if _, err := tbl.EntryAt(0x1000, 9); err == nil {
		t.Error("EntryAt invalid level should fail")
	}
	if _, err := tbl.EntryAt(0xffff00000000, 3); !errors.Is(err, ErrNotMapped) {
		t.Errorf("EntryAt on absent path: %v", err)
	}
}

func TestEnsurePath(t *testing.T) {
	tbl, _ := newHostTable(t)
	pageAddr, err := tbl.EnsurePath(0x7000, 3)
	if err != nil {
		t.Fatalf("EnsurePath: %v", err)
	}
	if tbl.LevelOf(pageAddr) != 3 {
		t.Errorf("EnsurePath returned page at level %d", tbl.LevelOf(pageAddr))
	}
	// The path now exists: EntryAt at level 3 works.
	if _, err := tbl.EntryAt(0x7000, 3); err != nil {
		t.Errorf("EntryAt after EnsurePath: %v", err)
	}
}

func TestVisitLeavesOrderAndContent(t *testing.T) {
	tbl, _ := newHostTable(t)
	vas := []uint64{0x7f0000001000, 0x1000, 0x40000000, 0x7f0000000000}
	for i, va := range vas {
		if err := tbl.Map(va, uint64(i+1)<<12, Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	tbl.VisitLeaves(func(l Leaf) bool {
		seen = append(seen, l.VA)
		return true
	})
	want := []uint64{0x1000, 0x40000000, 0x7f0000000000, 0x7f0000001000}
	if len(seen) != len(want) {
		t.Fatalf("visited %d leaves, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("leaf %d = %#x, want %#x (ascending VA order)", i, seen[i], want[i])
		}
	}
	// Early stop.
	n := 0
	tbl.VisitLeaves(func(Leaf) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop visit saw %d leaves", n)
	}
	if got := tbl.CountLeaves(); got != 4 {
		t.Errorf("CountLeaves = %d", got)
	}
}

func TestFreeEmptyPrunes(t *testing.T) {
	tbl, mem := newHostTable(t)
	before := mem.AllocatedFrames()
	if err := tbl.Map(0x7f0000000000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x7f0000000000, Size4K); err != nil {
		t.Fatal(err)
	}
	freed := tbl.FreeEmpty()
	if freed != 3 {
		t.Errorf("FreeEmpty freed %d pages, want 3 (L1..L3 chain)", freed)
	}
	if mem.AllocatedFrames() != before {
		t.Errorf("frames leaked: %d -> %d", before, mem.AllocatedFrames())
	}
	// Root is never freed and table still usable.
	if err := tbl.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatalf("Map after prune: %v", err)
	}
}

// TestMapLookupProperty checks the fundamental invariant va⇒pa round-trips
// across random sparse mappings at random sizes.
func TestMapLookupProperty(t *testing.T) {
	tbl, _ := newHostTable(t)
	rng := rand.New(rand.NewSource(7))
	type m struct {
		va, pa uint64
		size   Size
	}
	var maps []m
	covered := func(va uint64, size Size) bool {
		for _, x := range maps {
			lo, hi := x.va, x.va+x.size.Bytes()
			if va < hi && va+size.Bytes() > lo {
				return true
			}
		}
		return false
	}
	for len(maps) < 200 {
		size := Size(rng.Intn(3))
		va := (rng.Uint64() % (1 << 47)) &^ size.Mask()
		pa := (rng.Uint64() % (1 << 40)) &^ size.Mask()
		if covered(va, size) {
			continue
		}
		if err := tbl.Map(va, pa, size, FlagWrite); err != nil {
			// Conflicts with an interior table of a prior mapping are
			// legitimate (e.g. 1G over a region holding 4K tables).
			if errors.Is(err, ErrSplinter) || errors.Is(err, ErrAlreadyMapped) {
				continue
			}
			t.Fatalf("Map(%#x,%#x,%v): %v", va, pa, size, err)
		}
		maps = append(maps, m{va, pa, size})
	}
	for _, x := range maps {
		off := rng.Uint64() & x.size.Mask()
		r, err := tbl.Lookup(x.va + off)
		if err != nil {
			t.Fatalf("Lookup(%#x): %v", x.va+off, err)
		}
		if r.PA != x.pa+off {
			t.Fatalf("Lookup(%#x) = %#x, want %#x", x.va+off, r.PA, x.pa+off)
		}
	}
	if got := tbl.CountLeaves(); got != len(maps) {
		t.Errorf("CountLeaves = %d, want %d", got, len(maps))
	}
}

func TestEntryEncodingProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(pa uint64, w, u, a, d bool) bool {
		var f Entry
		if w {
			f |= FlagWrite
		}
		if u {
			f |= FlagUser
		}
		if a {
			f |= FlagAccessed
		}
		if d {
			f |= FlagDirty
		}
		e := MakeEntry(pa, f|FlagPresent)
		return e.Addr() == pa&uint64(addrMask) &&
			e.Writable() == w && e.User() == u &&
			e.Accessed() == a && e.Dirty() == d && e.Present()
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestEntryFlagManipulation(t *testing.T) {
	e := MakeEntry(0x1234000, FlagPresent|FlagWrite)
	e = e.WithFlags(FlagSwitch | FlagDirty)
	if !e.Switching() || !e.Dirty() || e.Addr() != 0x1234000 {
		t.Errorf("WithFlags: %v", e)
	}
	e = e.WithoutFlags(FlagWrite)
	if e.Writable() {
		t.Errorf("WithoutFlags: %v", e)
	}
	if e.Flags()&addrMask != 0 {
		t.Error("Flags leaked address bits")
	}
	// WithFlags must not corrupt the address field even if caller passes
	// address-range bits.
	e2 := MakeEntry(0x5000, FlagPresent).WithFlags(Entry(0xfff000))
	if e2.Addr() != 0x5000 {
		t.Errorf("WithFlags corrupted address: %v", e2)
	}
}

func TestEntryString(t *testing.T) {
	if s := Entry(0).String(); s == "" {
		t.Error("empty String for zero entry")
	}
	e := MakeEntry(0x1000, FlagPresent|FlagWrite|FlagSwitch)
	s := e.String()
	if s == "" {
		t.Error("empty String")
	}
}

func TestSizeGeometry(t *testing.T) {
	cases := []struct {
		s     Size
		bytes uint64
		leaf  int
		name  string
	}{
		{Size4K, 4096, 3, "4K"},
		{Size2M, 2 << 20, 2, "2M"},
		{Size1G, 1 << 30, 1, "1G"},
	}
	for _, c := range cases {
		if c.s.Bytes() != c.bytes || c.s.LeafLevel() != c.leaf || c.s.String() != c.name {
			t.Errorf("size %v: bytes=%d leaf=%d name=%s", c.s, c.s.Bytes(), c.s.LeafLevel(), c.s)
		}
		if PageBase(c.bytes+123, c.s) != c.bytes {
			t.Errorf("PageBase(%v)", c.s)
		}
	}
	if _, ok := SizeAtLevel(0); ok {
		t.Error("level 0 must not allow leaves")
	}
	for l := 1; l <= 3; l++ {
		if _, ok := SizeAtLevel(l); !ok {
			t.Errorf("level %d should allow leaves", l)
		}
	}
}

func TestSpanAtLevel(t *testing.T) {
	want := map[int]uint64{0: 1 << 39, 1: 1 << 30, 2: 1 << 21, 3: 1 << 12}
	for l, w := range want {
		if got := SpanAtLevel(l); got != w {
			t.Errorf("SpanAtLevel(%d) = %#x, want %#x", l, got, w)
		}
	}
}

func TestInfoTracksVABase(t *testing.T) {
	tbl, _ := newHostTable(t)
	va := uint64(0x7f12_3456_7000)
	if err := tbl.Map(va, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	wantBases := map[int]uint64{
		0: 0,
		1: va &^ (SpanAtLevel(0) - 1),
		2: va &^ (SpanAtLevel(1) - 1),
		3: va &^ (SpanAtLevel(2) - 1),
	}
	found := map[int]bool{}
	for pa := range tbl.TablePages() {
		info, ok := tbl.Info(pa)
		if !ok {
			t.Fatalf("Info(%#x) missing", pa)
		}
		if want := wantBases[info.Level]; info.VABase != want {
			t.Errorf("level %d VABase = %#x, want %#x", info.Level, info.VABase, want)
		}
		found[info.Level] = true
	}
	for l := 0; l < 4; l++ {
		if !found[l] {
			t.Errorf("no page recorded at level %d", l)
		}
	}
	if _, ok := tbl.Info(0xdead000); ok {
		t.Error("Info of unknown page should fail")
	}
}
