package guest

import (
	"errors"
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
)

// fakePlatform backs pages from simulated memory and records invalidations.
type fakePlatform struct {
	mem             *memsim.Memory
	invalidates     []uint64
	flushes         int
	freed           []uint64
	structuralEdits []uint64
}

func newFakePlatform() *fakePlatform {
	return &fakePlatform{mem: memsim.New(256 << 20)}
}

func (f *fakePlatform) NewProcessTable(asid uint16) (*pagetable.Table, error) {
	return pagetable.New(f.mem, pagetable.HostSpace{Mem: f.mem})
}

func (f *fakePlatform) AllocPage(size pagetable.Size) (uint64, error) {
	n := int(size.Bytes() / memsim.FrameSize)
	fr, err := f.mem.AllocContiguousAligned(n, n)
	if err != nil {
		return 0, err
	}
	return fr.Addr(), nil
}

func (f *fakePlatform) FreePage(pa uint64, size pagetable.Size) {
	f.freed = append(f.freed, pa)
}

func (f *fakePlatform) TLBInvalidate(asid uint16, va uint64) {
	f.invalidates = append(f.invalidates, va)
}

func (f *fakePlatform) TLBInvalidateSpan(asid uint16, va uint64, size pagetable.Size) {
	f.invalidates = append(f.invalidates, va)
}

func (f *fakePlatform) TLBFlush(asid uint16) { f.flushes++ }

func (f *fakePlatform) StructuralEdit(asid uint16, va uint64, size pagetable.Size) {
	f.structuralEdits = append(f.structuralEdits, va)
}

func newOS(t *testing.T) (*OS, *fakePlatform) {
	t.Helper()
	p := newFakePlatform()
	o := New(p)
	if _, err := o.CreateProcess(1, 1); err != nil {
		t.Fatal(err)
	}
	return o, p
}

func TestCreateProcess(t *testing.T) {
	o, _ := newOS(t)
	if o.Current() == nil || o.Current().PID != 1 {
		t.Fatal("first process not current")
	}
	if _, err := o.CreateProcess(1, 2); err == nil {
		t.Error("duplicate pid accepted")
	}
	if _, err := o.Process(99); !errors.Is(err, ErrNoProcess) {
		t.Errorf("err = %v", err)
	}
}

func TestMmapAndDemandFault(t *testing.T) {
	o, _ := newOS(t)
	r, err := o.Mmap(1, 0x4000_0000, 64<<12, pagetable.Size4K, true)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := o.Process(1)
	// Nothing mapped yet (demand paging).
	if _, err := p.PT.Lookup(r.Base); err == nil {
		t.Error("page mapped before fault")
	}
	if err := o.HandlePageFault(1, r.Base+0x123, false); err != nil {
		t.Fatalf("HandlePageFault: %v", err)
	}
	res, err := p.PT.Lookup(r.Base)
	if err != nil {
		t.Fatalf("page not mapped after fault: %v", err)
	}
	if !res.Entry.Writable() || !res.Entry.User() {
		t.Errorf("flags = %v", res.Entry)
	}
	if o.Stats().PageFaults != 1 || o.Stats().MapsInstalled != 1 {
		t.Errorf("stats = %+v", o.Stats())
	}
	// Fault outside any region is a segfault.
	if err := o.HandlePageFault(1, 0xdead_0000_0000, false); !errors.Is(err, ErrNoRegion) {
		t.Errorf("err = %v, want ErrNoRegion", err)
	}
}

func TestMmapOverlapRejected(t *testing.T) {
	o, _ := newOS(t)
	if _, err := o.Mmap(1, 0x1000_0000, 1<<20, pagetable.Size4K, true); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Mmap(1, 0x1000_8000, 1<<20, pagetable.Size4K, true); !errors.Is(err, ErrOverlap) {
		t.Errorf("err = %v, want ErrOverlap", err)
	}
	if _, err := o.Mmap(1, 0x2000_0000, 0, pagetable.Size4K, true); err == nil {
		t.Error("zero-length mmap accepted")
	}
}

func TestPopulateAndMunmap(t *testing.T) {
	o, plat := newOS(t)
	r, _ := o.Mmap(1, 0x4000_0000, 16<<12, pagetable.Size4K, true)
	if err := o.Populate(1, r.Base); err != nil {
		t.Fatal(err)
	}
	p, _ := o.Process(1)
	if got := p.PT.CountLeaves(); got != 16 {
		t.Fatalf("populated %d pages, want 16", got)
	}
	if err := o.Munmap(1, r.Base+0x3000); err != nil {
		t.Fatal(err)
	}
	if got := p.PT.CountLeaves(); got != 0 {
		t.Errorf("%d leaves after munmap", got)
	}
	if len(plat.invalidates) < 16 {
		t.Errorf("only %d TLB invalidations for 16-page munmap", len(plat.invalidates))
	}
	if len(plat.freed) != 16 {
		t.Errorf("%d pages freed", len(plat.freed))
	}
	if _, ok := p.RegionContaining(r.Base); ok {
		t.Error("region survived munmap")
	}
	if err := o.Munmap(1, r.Base); !errors.Is(err, ErrNoRegion) {
		t.Errorf("double munmap: %v", err)
	}
}

func TestCOWLifecycle(t *testing.T) {
	o, plat := newOS(t)
	r, _ := o.Mmap(1, 0x4000_0000, 8<<12, pagetable.Size4K, true)
	if err := o.Populate(1, r.Base); err != nil {
		t.Fatal(err)
	}
	p, _ := o.Process(1)
	before, _ := p.PT.Lookup(r.Base)

	if err := o.MarkCOW(1, r.Base); err != nil {
		t.Fatal(err)
	}
	res, _ := p.PT.Lookup(r.Base)
	if res.Entry.Writable() {
		t.Fatal("COW page still writable")
	}
	if !p.IsCOW(r.Base) {
		t.Fatal("page not marked COW")
	}
	inv := len(plat.invalidates)
	if inv < 8 {
		t.Errorf("MarkCOW invalidated %d pages, want >= 8", inv)
	}

	// Read fault on a COW page: nothing to do.
	if err := o.HandlePageFault(1, r.Base, false); err != nil {
		t.Fatal(err)
	}
	if p.IsCOW(r.Base) == false {
		t.Fatal("read fault broke COW")
	}

	// Write fault: private copy.
	if err := o.HandlePageFault(1, r.Base, true); err != nil {
		t.Fatal(err)
	}
	after, _ := p.PT.Lookup(r.Base)
	if !after.Entry.Writable() || after.Entry.Addr() == before.Entry.Addr() {
		t.Errorf("COW not broken: %v -> %v", before.Entry, after.Entry)
	}
	if p.IsCOW(r.Base) {
		t.Error("page still marked COW after break")
	}
	if o.Stats().COWBreaks != 1 {
		t.Errorf("COWBreaks = %d", o.Stats().COWBreaks)
	}
}

func TestReclaimClockSecondChance(t *testing.T) {
	o, _ := newOS(t)
	r, _ := o.Mmap(1, 0x4000_0000, 8<<12, pagetable.Size4K, true)
	if err := o.Populate(1, r.Base); err != nil {
		t.Fatal(err)
	}
	p, _ := o.Process(1)
	// Mark all pages referenced.
	for va := r.Base; va < r.End(); va += 4096 {
		if err := p.PT.SetFlags(va, pagetable.FlagAccessed); err != nil {
			t.Fatal(err)
		}
	}
	// First pass: all referenced, so A bits cleared and nothing evicted.
	evicted, err := o.ReclaimScan(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 {
		t.Fatalf("first pass evicted %d", evicted)
	}
	for va := r.Base; va < r.End(); va += 4096 {
		res, _ := p.PT.Lookup(va)
		if res.Entry.Accessed() {
			t.Fatalf("A bit not cleared at %#x", va)
		}
	}
	// Second pass: unreferenced pages are evicted.
	evicted, err = o.ReclaimScan(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 8 {
		t.Fatalf("second pass evicted %d, want 8", evicted)
	}
	if got := p.PT.CountLeaves(); got != 0 {
		t.Errorf("%d pages survive eviction", got)
	}
	s := o.Stats()
	if s.ReclaimScanned != 16 || s.ReclaimEvicted != 8 {
		t.Errorf("reclaim stats = %+v", s)
	}
	// Reclaim on empty table is a no-op.
	if _, err := o.ReclaimScan(1, 4); err != nil {
		t.Fatal(err)
	}
}

func TestContextSwitch(t *testing.T) {
	o, _ := newOS(t)
	if _, err := o.CreateProcess(2, 2); err != nil {
		t.Fatal(err)
	}
	p, err := o.ContextSwitch(2)
	if err != nil || p.PID != 2 || o.Current() != p {
		t.Fatalf("ContextSwitch: %v %v", p, err)
	}
	// Switching to the current process is free.
	o.ContextSwitch(2)
	if o.Stats().CtxSwitches != 1 {
		t.Errorf("CtxSwitches = %d", o.Stats().CtxSwitches)
	}
	if _, err := o.ContextSwitch(42); err == nil {
		t.Error("switch to unknown pid accepted")
	}
}

func TestRegionQueries(t *testing.T) {
	o, _ := newOS(t)
	o.Mmap(1, 0x1000_0000, 1<<20, pagetable.Size4K, true)
	o.Mmap(1, 0x4000_0000, 2<<20, pagetable.Size2M, false)
	p, _ := o.Process(1)
	rs := p.Regions()
	if len(rs) != 2 || rs[0].Base != 0x1000_0000 || rs[1].Base != 0x4000_0000 {
		t.Fatalf("Regions = %+v", rs)
	}
	if _, ok := p.RegionContaining(0x1008_0000); !ok {
		t.Error("interior address not found")
	}
	if _, ok := p.RegionContaining(0x3000_0000); ok {
		t.Error("gap address found")
	}
	if _, ok := p.RegionContaining(0x1000_0000 + 1<<20); ok {
		t.Error("end address should be exclusive")
	}
}

func Test2MRegionFault(t *testing.T) {
	o, _ := newOS(t)
	r, _ := o.Mmap(1, 0x4000_0000, 4<<21, pagetable.Size2M, true)
	if err := o.HandlePageFault(1, r.Base+0x123456, true); err != nil {
		t.Fatal(err)
	}
	p, _ := o.Process(1)
	res, err := p.PT.Lookup(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != pagetable.Size2M {
		t.Errorf("mapped size = %v", res.Size)
	}
	if !res.Entry.Dirty() {
		t.Error("write fault should pre-set dirty")
	}
}

func TestStatsReset(t *testing.T) {
	o, _ := newOS(t)
	o.Mmap(1, 0x1000_0000, 1<<12, pagetable.Size4K, true)
	o.HandlePageFault(1, 0x1000_0000, false)
	o.ResetStats()
	if o.Stats() != (Stats{}) {
		t.Error("ResetStats")
	}
}

func TestCollapseTHP(t *testing.T) {
	o, plat := newOS(t)
	base := uint64(0x4000_0000) // 2M-aligned
	if _, err := o.Mmap(1, base, 2<<20, pagetable.Size4K, true); err != nil {
		t.Fatal(err)
	}
	if err := o.Populate(1, base); err != nil {
		t.Fatal(err)
	}
	p, _ := o.Process(1)
	if got := p.PT.CountLeaves(); got != 512 {
		t.Fatalf("populated %d leaves", got)
	}
	if err := o.Collapse(1, base+0x1234); err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	res, err := p.PT.Lookup(base + 0x123456)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != pagetable.Size2M {
		t.Fatalf("post-collapse size = %v", res.Size)
	}
	if got := p.PT.CountLeaves(); got != 1 {
		t.Errorf("leaves after collapse = %d", got)
	}
	if o.Stats().Collapses != 1 {
		t.Errorf("Collapses = %d", o.Stats().Collapses)
	}
	// All 512 old backing pages freed.
	if len(plat.freed) != 512 {
		t.Errorf("freed %d pages, want 512", len(plat.freed))
	}
	// Munmap handles the mixed-size region.
	if err := o.Munmap(1, base); err != nil {
		t.Fatalf("Munmap after collapse: %v", err)
	}
	if got := p.PT.CountLeaves(); got != 0 {
		t.Errorf("leaves after munmap = %d", got)
	}
}

func TestCollapseErrors(t *testing.T) {
	o, _ := newOS(t)
	base := uint64(0x4000_0000)
	if err := o.Collapse(1, base); !errors.Is(err, ErrNoRegion) {
		t.Errorf("collapse outside region: %v", err)
	}
	if _, err := o.Mmap(1, base, 2<<20, pagetable.Size4K, true); err != nil {
		t.Fatal(err)
	}
	// Partially mapped range refuses to collapse.
	if err := o.HandlePageFault(1, base, true); err != nil {
		t.Fatal(err)
	}
	if err := o.Collapse(1, base); err == nil {
		t.Error("collapse of partially-mapped range accepted")
	}
	// Already-2M range refuses too.
	base2 := uint64(0x5000_0000)
	if _, err := o.Mmap(1, base2, 2<<20, pagetable.Size2M, true); err != nil {
		t.Fatal(err)
	}
	if err := o.Populate(1, base2); err != nil {
		t.Fatal(err)
	}
	if err := o.Collapse(1, base2); err == nil {
		t.Error("collapse of 2M mapping accepted")
	}
}
