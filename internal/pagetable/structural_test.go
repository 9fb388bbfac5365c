package pagetable

import (
	"errors"
	"testing"

	"agilepaging/internal/memsim"
)

// plantSwitch writes a switching entry at (va, level) pointing at target —
// an address that belongs to another physical space and must never be
// dereferenced through this table.
func plantSwitch(t *testing.T, tbl *Table, va uint64, level int, target uint64) {
	t.Helper()
	if _, err := tbl.EnsurePath(va, level); err != nil {
		t.Fatalf("EnsurePath: %v", err)
	}
	if err := tbl.SetEntryAt(va, level, MakeEntry(target, FlagPresent|FlagSwitch)); err != nil {
		t.Fatalf("SetEntryAt: %v", err)
	}
}

// TestSwitchingEntryBlocksTraversal pins the root-cause fix of the
// collapse-under-agile panic: no table traversal may dereference a switching
// entry's address, because it points into a different physical space. The
// bogus target here is not a table frame — any dereference panics.
func TestSwitchingEntryBlocksTraversal(t *testing.T) {
	va := uint64(0x7f00_0000_0000)
	bogus := uint64(0xdead_f000)

	tbl, _ := newHostTable(t)
	plantSwitch(t, tbl, va, 1, bogus)

	if _, err := tbl.EntryAt(va, 2); !errors.Is(err, ErrSwitching) {
		t.Errorf("EntryAt below switch: %v, want ErrSwitching", err)
	}
	if err := tbl.SetEntryAt(va, 2, 0); !errors.Is(err, ErrSwitching) {
		t.Errorf("SetEntryAt below switch: %v, want ErrSwitching", err)
	}
	if _, err := tbl.EnsurePath(va, 3); !errors.Is(err, ErrSwitching) {
		t.Errorf("EnsurePath below switch: %v, want ErrSwitching", err)
	}
	if err := tbl.Map(va, 0x2000, Size4K, 0); !errors.Is(err, ErrSwitching) {
		t.Errorf("Map below switch: %v, want ErrSwitching", err)
	}
	if err := tbl.Unmap(va, Size4K); !errors.Is(err, ErrSwitching) {
		t.Errorf("Unmap below switch: %v, want ErrSwitching", err)
	}
	if _, ok := tbl.TryLookup(va); ok {
		t.Error("TryLookup resolved through a switching entry")
	}
	leaves := 0
	tbl.VisitLeaves(func(l Leaf) bool { leaves++; return true })
	if leaves != 0 {
		t.Errorf("VisitLeaves found %d leaves under a switching entry", leaves)
	}
	if tbl.FreeEmpty() != 0 {
		t.Error("FreeEmpty pruned the path holding a switching entry")
	}
}

// TestFreeHookFiresBeforeRelease checks the FreeEmpty half of the contract:
// the hook sees each pruned page while Info still answers for it, before the
// Space reclaims it, in bottom-up order.
func TestFreeHookFiresBeforeRelease(t *testing.T) {
	tbl, _ := newHostTable(t)
	va := uint64(0x7f00_0000_0000)
	if err := tbl.Map(va, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	type ev struct {
		page   uint64
		level  int
		vaBase uint64
	}
	var events []ev
	tbl.SetFreeHook(func(page uint64, level int, vaBase uint64) {
		if _, ok := tbl.Info(page); !ok {
			t.Errorf("page %#x already unregistered inside the hook", page)
		}
		events = append(events, ev{page, level, vaBase})
	})
	if err := tbl.Unmap(va, Size4K); err != nil {
		t.Fatal(err)
	}
	if n := tbl.FreeEmpty(); n != 3 {
		t.Fatalf("FreeEmpty freed %d, want 3", n)
	}
	if len(events) != 3 {
		t.Fatalf("hook fired %d times, want 3: %+v", len(events), events)
	}
	// Pruning is bottom-up: leaf (level 3) first, then L2, then L1.
	for i, wantLevel := range []int{3, 2, 1} {
		if events[i].level != wantLevel {
			t.Errorf("event %d level = %d, want %d", i, events[i].level, wantLevel)
		}
		span := SpanAtLevel(wantLevel - 1)
		if events[i].vaBase != va&^(span-1) {
			t.Errorf("event %d vaBase = %#x, want %#x", i, events[i].vaBase, va&^(span-1))
		}
	}
}

// TestZapSubtreeFreesCoveredPages checks the shadow-invalidation primitive:
// zapping an interior entry clears it and frees every page underneath.
func TestZapSubtreeFreesCoveredPages(t *testing.T) {
	tbl, mem := newHostTable(t)
	va := uint64(0x7f00_0000_0000)
	// Two leaves in one 2M span plus one in a sibling 1G span.
	for _, m := range []uint64{va, va + 0x1000, va + (1 << 30)} {
		if err := tbl.Map(m, 0x2000, Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := mem.AllocatedFrames()
	var hooked []uint64
	tbl.SetFreeHook(func(page uint64, level int, vaBase uint64) { hooked = append(hooked, page) })

	// Zap the level-1 entry covering va's 1G span: its L2 and L3 pages go.
	zapped, freed := tbl.ZapSubtree(va, 1)
	if !zapped || freed != 2 {
		t.Fatalf("ZapSubtree = (%v, %d), want (true, 2)", zapped, freed)
	}
	if len(hooked) != 2 {
		t.Errorf("free hook fired %d times, want 2", len(hooked))
	}
	if mem.AllocatedFrames() != before-2 {
		t.Errorf("frames not released: %d -> %d", before, mem.AllocatedFrames())
	}
	if _, ok := tbl.TryLookup(va); ok {
		t.Error("zapped translation still resolves")
	}
	if _, ok := tbl.TryLookup(va + (1 << 30)); !ok {
		t.Error("sibling span lost its translation")
	}
	// Nothing left to zap on the same path.
	if zapped, _ := tbl.ZapSubtree(va, 1); zapped {
		t.Error("second zap of the same entry reported work")
	}
}

// TestZapSubtreeSwitchingEntry checks that a switching entry at the target
// slot is cleared without being dereferenced, and that a switching entry
// above the target blocks the zap entirely.
func TestZapSubtreeSwitchingEntry(t *testing.T) {
	va := uint64(0x7f00_0000_0000)
	bogus := uint64(0xdead_f000)

	tbl, _ := newHostTable(t)
	plantSwitch(t, tbl, va, 2, bogus)
	zapped, freed := tbl.ZapSubtree(va, 2)
	if !zapped || freed != 0 {
		t.Errorf("zap of switching entry = (%v, %d), want (true, 0)", zapped, freed)
	}
	if e, err := tbl.EntryAt(va, 2); err != nil || e.Present() {
		t.Errorf("switching entry not cleared: e=%v err=%v", e, err)
	}

	// Blocked above: a switch at level 1 means levels 2+ are another
	// table's business.
	tbl2, _ := newHostTable(t)
	plantSwitch(t, tbl2, va, 1, bogus)
	if zapped, _ := tbl2.ZapSubtree(va, 3); zapped {
		t.Error("zap below a switching entry reported work")
	}
}

// TestGuestSpaceRecycledTablePageIsZeroed pins the allocator half of the
// contract: a guest table page freed with entries still visible in guest RAM
// comes back zeroed when the gPA is recycled, like an OS zeroing a new PT
// page. (FreeEmpty only frees all-empty pages, so this is belt-and-braces
// for future free paths; the host frame stays materialized throughout.)
func TestGuestSpaceRecycledTablePageIsZeroed(t *testing.T) {
	mem := memsim.New(64 << 20)
	// A tiny stand-in for vmm.guestPhysSpace: identity gPA->hPA over a
	// bump allocator with a LIFO free list.
	sp := &recycleSpace{mem: mem}
	tbl, err := New(mem, sp)
	if err != nil {
		t.Fatal(err)
	}
	va := uint64(0x7f00_0000_0000)
	if err := tbl.Map(va, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(va, Size4K); err != nil {
		t.Fatal(err)
	}
	if n := tbl.FreeEmpty(); n != 3 {
		t.Fatalf("FreeEmpty freed %d, want 3", n)
	}
	// Scribble on a freed-but-still-materialized page, as a stale-state bug
	// would leave entries behind.
	dirty := sp.freed[len(sp.freed)-1]
	mem.WriteEntry(memsim.FrameOf(dirty), 7, uint64(MakeEntry(0xdead_f000, FlagPresent)))
	// Recycling must hand the page back zeroed.
	if err := tbl.Map(va, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.TryLookup(va | (7 << 12)); ok {
		t.Error("stale entry visible through recycled table page")
	}
}

type recycleSpace struct {
	mem   *memsim.Memory
	freed []uint64
}

func (s *recycleSpace) FrameFor(pa uint64) (memsim.Frame, bool) {
	f := memsim.FrameOf(pa)
	if !s.mem.IsTable(f) {
		return 0, false
	}
	return f, true
}

func (s *recycleSpace) AllocTablePage() (uint64, error) {
	var pa uint64
	if n := len(s.freed); n > 0 {
		pa = s.freed[n-1]
		s.freed = s.freed[:n-1]
	} else {
		f, err := s.mem.AllocFrame()
		if err != nil {
			return 0, err
		}
		pa = f.Addr()
	}
	if err := s.mem.MaterializeTable(memsim.FrameOf(pa)); err != nil {
		return 0, err
	}
	s.mem.ZeroTable(memsim.FrameOf(pa))
	return pa, nil
}

func (s *recycleSpace) FreeTablePage(pa uint64) error {
	s.freed = append(s.freed, pa)
	return nil
}
