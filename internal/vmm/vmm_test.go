package vmm

import (
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// recordingMMU records invalidations for assertions.
type recordingMMU struct {
	invalidates []uint64
	flushes     int
	ntlbDrops   []uint64
}

func (m *recordingMMU) InvalidatePage(asid uint16, gva uint64) {
	m.invalidates = append(m.invalidates, gva)
}
func (m *recordingMMU) FlushASID(asid uint16)                   { m.flushes++ }
func (m *recordingMMU) PWCInvalidateVA(asid uint16, gva uint64) {}
func (m *recordingMMU) PWCFlushASID(asid uint16)                {}
func (m *recordingMMU) NTLBInvalidateGPA(vmid uint16, gpa uint64) {
	m.ntlbDrops = append(m.ntlbDrops, gpa)
}

func newTestVM(t *testing.T, technique walker.Mode) (*VM, *recordingMMU) {
	t.Helper()
	mem := memsim.New(512 << 20)
	mmu := &recordingMMU{}
	cfg := DefaultConfig(technique)
	cfg.RAMBytes = 64 << 20
	vm, err := New(mem, mmu, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vm, mmu
}

func TestNewVMRejectsNativeTechnique(t *testing.T) {
	mem := memsim.New(1 << 20)
	if _, err := New(mem, NopMMU{}, 1, DefaultConfig(walker.ModeNative)); err == nil {
		t.Fatal("native technique should be rejected")
	}
}

func TestAllocGPABacksMemory(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeNested)
	gpa, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	hpa, w, err := vm.TranslateGPA(gpa)
	if err != nil {
		t.Fatalf("TranslateGPA: %v", err)
	}
	if hpa == 0 || !w {
		t.Errorf("hpa=%#x writable=%v", hpa, w)
	}
	// Recycling.
	vm.FreeGPA(gpa, pagetable.Size4K)
	gpa2, _ := vm.AllocGPA(pagetable.Size4K)
	if gpa2 != gpa {
		t.Errorf("freed gpa not recycled: %#x vs %#x", gpa2, gpa)
	}
}

func TestAllocGPA2MHostBacking(t *testing.T) {
	mem := memsim.New(512 << 20)
	cfg := DefaultConfig(walker.ModeNested)
	cfg.RAMBytes = 64 << 20
	cfg.HostPageSize = pagetable.Size2M
	vm, err := New(mem, NopMMU{}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpa, err := vm.AllocGPA(pagetable.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vm.HPT().Lookup(gpa)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != pagetable.Size2M {
		t.Errorf("host backing size = %v, want 2M", r.Size)
	}
	// A 4K guest allocation under a 2M host regime still works: backed at
	// host page size covering it.
	g2, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vm.TranslateGPA(g2); err != nil {
		t.Errorf("4K gpa not backed: %v", err)
	}
}

func TestGuestOOM(t *testing.T) {
	mem := memsim.New(512 << 20)
	cfg := DefaultConfig(walker.ModeNested)
	cfg.RAMBytes = 16 << 12 // 16 pages
	vm, err := New(mem, NopMMU{}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := vm.AllocGPA(pagetable.Size4K); err != nil {
			if err != ErrGuestOOM {
				t.Fatalf("err = %v, want ErrGuestOOM", err)
			}
			return
		}
	}
}

func TestShadowFillAndWalk(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, err := vm.NewProcess(7)
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x7f00_0000_0000)
	gpa, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
		t.Fatal(err)
	}
	// No shadow state yet: hardware walk faults, VMM fills.
	w := walker.New(memOf(vm), nil, nil)
	_, f := w.Walk(ctx.Regs(), gva, false)
	if f == nil || f.Kind != walker.FaultNotPresent {
		t.Fatalf("expected shadow not-present fault, got %v", f)
	}
	out, err := ctx.HandleShadowFault(gva, false)
	if err != nil || out != OutcomeRetry {
		t.Fatalf("HandleShadowFault = %v, %v", out, err)
	}
	r, f := w.Walk(ctx.Regs(), gva|0x123, false)
	if f != nil {
		t.Fatalf("walk after fill: %v", f)
	}
	hpa, _, _ := vm.TranslateGPA(gpa)
	if r.HPA != hpa|0x123 {
		t.Errorf("HPA = %#x, want %#x", r.HPA, hpa|0x123)
	}
	if r.Refs != 4 || !r.LeafShadow {
		t.Errorf("shadow walk result: %+v", r)
	}
	// The fill is a hidden VM exit.
	if vm.Stats().Traps[TrapShadowFill] != 1 {
		t.Errorf("shadow fill traps = %d", vm.Stats().Traps[TrapShadowFill])
	}
	// Guest accessed bit was propagated, dirty was not (read access), and
	// the shadow entry withholds write permission for dirty tracking.
	gr, _ := ctx.GPT().Lookup(gva)
	if !gr.Entry.Accessed() || gr.Entry.Dirty() {
		t.Errorf("guest A/D after fill: %v", gr.Entry)
	}
	if r.Flags.Writable() {
		t.Error("shadow entry should withhold write permission until first write")
	}
	// All four guest table pages on the path are now protected.
	if got := ctx.ProtectedPages(); got != 4 {
		t.Errorf("protected pages = %d, want 4", got)
	}
}

func TestShadowFaultOnUnmappedIsGuestFault(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(7)
	out, err := ctx.HandleShadowFault(0xdead_0000, false)
	if err != nil || out != OutcomeGuestFault {
		t.Fatalf("HandleShadowFault = %v, %v; want OutcomeGuestFault", out, err)
	}
}

func TestWriteProtectDirtyTracking(t *testing.T) {
	vm, mmu := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(7)
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	resolved, err := ctx.HandleWriteProtect(gva)
	if err != nil || !resolved {
		t.Fatalf("HandleWriteProtect = %v, %v", resolved, err)
	}
	if vm.Stats().Traps[TrapADUpdate] != 1 {
		t.Errorf("AD-update traps = %d, want 1", vm.Stats().Traps[TrapADUpdate])
	}
	gr, _ := ctx.GPT().Lookup(gva)
	if !gr.Entry.Dirty() {
		t.Error("guest dirty bit not set")
	}
	sr, err := ctx.SPT().Lookup(gva)
	if err != nil || !sr.Entry.Writable() || !sr.Entry.Dirty() {
		t.Errorf("shadow entry after write grant: %v (%v)", sr.Entry, err)
	}
	if len(mmu.invalidates) == 0 {
		t.Error("TLB entry not invalidated after permission change")
	}
}

func TestWriteProtectHardwareADOptimization(t *testing.T) {
	mem := memsim.New(512 << 20)
	cfg := DefaultConfig(walker.ModeShadow)
	cfg.RAMBytes = 64 << 20
	cfg.HardwareAD = true
	vm, err := New(mem, NopMMU{}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := vm.NewProcess(7)
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	resolved, err := ctx.HandleWriteProtect(gva)
	if err != nil || !resolved {
		t.Fatal(err)
	}
	s := vm.Stats()
	if s.Traps[TrapADUpdate] != 0 {
		t.Error("hardware A/D optimization should avoid the trap")
	}
	if s.HWADUpdates != 1 || s.HWADRefs != DefaultCostModel().HWADWalkRefs {
		t.Errorf("hw A/D accounting = %d updates, %d refs", s.HWADUpdates, s.HWADRefs)
	}
}

func TestWriteProtectGuestCOWIsGuestFault(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(7)
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, 0); err != nil { // read-only (COW)
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	resolved, err := ctx.HandleWriteProtect(gva)
	if err != nil {
		t.Fatal(err)
	}
	if resolved {
		t.Error("guest COW fault must be delivered to the guest OS")
	}
}

func TestProtectedPTWriteTrapsAndZaps(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(7)
	gva := uint64(0x2000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	base := vm.Stats().Traps[TrapPTWrite]
	var events []uint64
	ctx.SetWriteListener(func(gptPage uint64, level, idx int, old, new pagetable.Entry) { events = append(events, gptPage) })
	// The guest OS updates the PTE (e.g. remaps the page).
	if err := ctx.GPT().Unmap(gva, pagetable.Size4K); err != nil {
		t.Fatal(err)
	}
	if got := vm.Stats().Traps[TrapPTWrite] - base; got != 1 {
		t.Fatalf("PT-write traps = %d, want 1", got)
	}
	if len(events) != 1 {
		t.Fatalf("listener events = %d", len(events))
	}
	// The shadow leaf must be gone.
	if _, err := ctx.SPT().Lookup(gva); err == nil {
		t.Error("shadow entry survived guest PT write")
	}
	if vm.Stats().ShadowEntriesZapped == 0 {
		t.Error("zap not accounted")
	}
}

func TestUnprotectedPTWriteDoesNotTrap(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(7)
	gva := uint64(0x2000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	// No shadow fill has happened: pages are unprotected, writes are free.
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if got := vm.Stats().Traps[TrapPTWrite]; got != 0 {
		t.Errorf("PT-write traps = %d, want 0", got)
	}
	// But the host table dirty bit was set by the guest store (hardware
	// effect), which the dirty-scan policy depends on.
	for pa := range ctx.GPT().TablePages() {
		r, err := vm.HPT().Lookup(pa)
		if err != nil {
			t.Fatalf("table page %#x unbacked: %v", pa, err)
		}
		if !r.Entry.Dirty() {
			t.Errorf("host dirty bit not set for written guest PT page %#x", pa)
		}
	}
}

func TestContextSwitchTrapsAndCache(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	a, _ := vm.NewProcess(1)
	b, _ := vm.NewProcess(2)
	_ = a
	_ = b
	base := vm.Stats().Traps[TrapContextSwitch]
	if _, err := vm.ContextSwitch(2); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.ContextSwitch(1); err != nil {
		t.Fatal(err)
	}
	if got := vm.Stats().Traps[TrapContextSwitch] - base; got != 2 {
		t.Errorf("context-switch traps = %d, want 2 (no hw cache)", got)
	}
	if _, err := vm.ContextSwitch(99); err == nil {
		t.Error("unknown asid should fail")
	}
}

func TestContextSwitchHardwareCache(t *testing.T) {
	mem := memsim.New(512 << 20)
	cfg := DefaultConfig(walker.ModeShadow)
	cfg.RAMBytes = 64 << 20
	cfg.CtxSwitchCacheEntries = 4
	vm, err := New(mem, NopMMU{}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm.NewProcess(1)
	vm.NewProcess(2)
	vm.ContextSwitch(1)
	vm.ContextSwitch(2)
	pre := vm.Stats()
	vm.ContextSwitch(1)
	vm.ContextSwitch(2)
	vm.ContextSwitch(1)
	post := vm.Stats()
	if post.Traps[TrapContextSwitch] != pre.Traps[TrapContextSwitch] {
		t.Errorf("warm context switches trapped: %d -> %d", pre.Traps[TrapContextSwitch], post.Traps[TrapContextSwitch])
	}
	if post.CtxCacheHits-pre.CtxCacheHits != 3 {
		t.Errorf("cache hits = %d, want 3", post.CtxCacheHits-pre.CtxCacheHits)
	}
}

func TestNestedContextSwitchNoTrap(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeNested)
	vm.NewProcess(1)
	vm.NewProcess(2)
	vm.ContextSwitch(1)
	vm.ContextSwitch(2)
	if got := vm.Stats().Traps[TrapContextSwitch]; got != 0 {
		t.Errorf("nested context switches trapped %d times", got)
	}
	regs, _ := vm.ContextSwitch(1)
	if regs.Mode != walker.ModeNested || regs.Root != 0 {
		t.Errorf("nested regs = %+v", regs)
	}
}

func TestGuestTLBFlushInterception(t *testing.T) {
	// Nested: INVLPG runs unintercepted.
	vm, _ := newTestVM(t, walker.ModeNested)
	ctx, _ := vm.NewProcess(1)
	ctx.GuestTLBFlush(0x1000, false)
	if got := vm.Stats().Traps[TrapTLBFlush]; got != 0 {
		t.Errorf("nested flush trapped %d times", got)
	}

	// Shadow: every INVLPG exits.
	vm, _ = newTestVM(t, walker.ModeShadow)
	ctx, _ = vm.NewProcess(1)
	ctx.GuestTLBFlush(0x1000, false)
	if got := vm.Stats().Traps[TrapTLBFlush]; got != 1 {
		t.Errorf("shadow flush traps = %d, want 1", got)
	}

	// Agile: only flushes of shadow-covered addresses exit.
	vm, _ = newTestVM(t, walker.ModeAgile)
	ctx, _ = vm.NewProcess(1)
	ctx.GuestTLBFlush(0x1000, false) // nothing shadow-covered yet
	if got := vm.Stats().Traps[TrapTLBFlush]; got != 0 {
		t.Errorf("agile flush of uncovered gva trapped %d times", got)
	}
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	ctx.GuestTLBFlush(gva, false) // now shadow-covered
	if got := vm.Stats().Traps[TrapTLBFlush]; got != 1 {
		t.Errorf("agile flush of shadow-covered gva traps = %d, want 1", got)
	}
	// Full flush with shadow coverage exits too.
	ctx.GuestTLBFlush(0, true)
	if got := vm.Stats().Traps[TrapTLBFlush]; got != 2 {
		t.Errorf("agile full flush traps = %d, want 2", got)
	}

	// Fully nested agile context: no intercepts at all.
	vm, _ = newTestVM(t, walker.ModeAgile)
	ctx, _ = vm.NewProcess(1)
	ctx.SetFullNested(true)
	ctx.GuestTLBFlush(0, true)
	if got := vm.Stats().Traps[TrapTLBFlush]; got != 0 {
		t.Errorf("fully nested agile flush trapped %d times", got)
	}
}

func TestAgilePlantAndClearSwitch(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeAgile)
	ctx, _ := vm.NewProcess(3)
	gva := uint64(0x7f00_0000_0000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	// Move the leaf-level guest table node to nested mode.
	leafNode, err := ctx.GPT().EntryAt(gva, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.PlantSwitch(leafNode.Addr()); err != nil {
		t.Fatalf("PlantSwitch: %v", err)
	}
	if ctx.IsProtected(leafNode.Addr()) {
		t.Error("nested node still write-protected")
	}
	// Hardware walk now switches at the leaf: 8 references (Table II).
	w := walker.New(memOf(vm), nil, nil)
	r, f := w.Walk(ctx.Regs(), gva, false)
	if f != nil {
		t.Fatalf("agile walk: %v", f)
	}
	if r.Refs != 8 || r.NestedLevels != 1 {
		t.Errorf("agile walk refs=%d nested=%d, want 8/1", r.Refs, r.NestedLevels)
	}
	// Guest PT writes to that node are now trap-free.
	base := vm.Stats().Traps[TrapPTWrite]
	if err := ctx.GPT().Unmap(gva, pagetable.Size4K); err != nil {
		t.Fatal(err)
	}
	if got := vm.Stats().Traps[TrapPTWrite] - base; got != 0 {
		t.Errorf("nested-node PT write trapped %d times", got)
	}
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	// Convert back to shadow.
	if err := ctx.ClearSwitch(leafNode.Addr()); err != nil {
		t.Fatalf("ClearSwitch: %v", err)
	}
	if !ctx.IsProtected(leafNode.Addr()) {
		t.Error("node not re-protected after ClearSwitch")
	}
	// Walk faults (switch entry removed), refill in shadow, then 4 refs.
	if _, f := w.Walk(ctx.Regs(), gva, false); f == nil {
		t.Fatal("expected fault after ClearSwitch")
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	r, f = w.Walk(ctx.Regs(), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r.Refs != 4 || r.NestedLevels != 0 {
		t.Errorf("after revert: refs=%d nested=%d, want 4/0", r.Refs, r.NestedLevels)
	}
}

func TestAgileRootSwitch(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeAgile)
	ctx, _ := vm.NewProcess(3)
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := ctx.PlantSwitch(ctx.GPT().Root()); err != nil {
		t.Fatal(err)
	}
	if !ctx.RootSwitch() {
		t.Fatal("root switch not set")
	}
	w := walker.New(memOf(vm), nil, nil)
	r, f := w.Walk(ctx.Regs(), gva, false)
	if f != nil {
		t.Fatalf("root-switch walk: %v", f)
	}
	if r.Refs != 20 || r.NestedLevels != 4 || r.GptrTranslated {
		t.Errorf("root-switch walk refs=%d nested=%d gptr=%v, want 20/4/false", r.Refs, r.NestedLevels, r.GptrTranslated)
	}
	if err := ctx.ClearSwitch(ctx.GPT().Root()); err != nil {
		t.Fatal(err)
	}
	if ctx.RootSwitch() {
		t.Error("root switch not cleared")
	}
}

func TestSubtreePages(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(3)
	// Two leaves under distinct L3 tables within one L2 subtree.
	for _, gva := range []uint64{0x0000_0000_1000, 0x0000_0020_0000 + 0x1000} {
		gpa, _ := vm.AllocGPA(pagetable.Size4K)
		if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	pages := ctx.SubtreePages(ctx.GPT().Root())
	// root + L2 + L3 + two leaf tables = 5.
	if len(pages) != 5 {
		t.Errorf("subtree pages = %d, want 5", len(pages))
	}
	// Subtree of the level-2 node: itself + 2 leaf tables.
	l2, err := ctx.GPT().EntryAt(0x1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pages = ctx.SubtreePages(l2.Addr())
	if len(pages) != 3 {
		t.Errorf("L2 subtree pages = %d, want 3", len(pages))
	}
	if got := ctx.SubtreePages(0xdeadbeef000); got != nil {
		t.Error("unknown page should yield nil")
	}
}

func TestHostCOWFlow(t *testing.T) {
	vm, mmu := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(3)
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, true); err != nil {
		t.Fatal(err)
	}
	hpaBefore, _, _ := vm.TranslateGPA(gpa)
	// VMM dedups the page with another (content sharing): host write
	// protection.
	other, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.DedupPages(gpa, other); err != nil {
		t.Fatal(err)
	}
	if len(mmu.ntlbDrops) == 0 {
		t.Error("NTLB not invalidated on host protection change")
	}
	// The shadow leaf translating through that gpa must be zapped.
	if _, err := ctx.SPT().Lookup(gva); err == nil {
		t.Error("shadow leaf survived host page protection")
	}
	// Guest write: resolved by host COW break with a fresh frame.
	resolved, err := ctx.HandleWriteProtect(gva)
	if err != nil || !resolved {
		t.Fatalf("host COW resolution = %v, %v", resolved, err)
	}
	hpaAfter, w, _ := vm.TranslateGPA(gpa)
	if !w || hpaAfter == hpaBefore {
		t.Errorf("host COW not broken: hpa %#x -> %#x writable=%v", hpaBefore, hpaAfter, w)
	}
	if vm.Stats().Traps[TrapHostFault] != 1 {
		t.Errorf("host fault traps = %d", vm.Stats().Traps[TrapHostFault])
	}
}

func TestShadowFill2MGuestOn4KHostSplinters(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow) // host page size 4K
	ctx, _ := vm.NewProcess(3)
	gva := uint64(0x4000_0000)
	gpa, err := vm.AllocGPA(pagetable.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size2M, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	target := gva + 5*4096
	if _, err := ctx.HandleShadowFault(target, false); err != nil {
		t.Fatal(err)
	}
	sr, err := ctx.SPT().Lookup(target)
	if err != nil {
		t.Fatalf("shadow lookup: %v", err)
	}
	if sr.Size != pagetable.Size4K {
		t.Errorf("shadow size = %v, want 4K splinter (paper §V)", sr.Size)
	}
	wantHPA, _, _ := vm.TranslateGPA(gpa + 5*4096)
	if sr.PA != wantHPA {
		t.Errorf("splintered PA = %#x, want %#x", sr.PA, wantHPA)
	}
}

func TestShadowFill2MGuestOn2MHost(t *testing.T) {
	mem := memsim.New(512 << 20)
	cfg := DefaultConfig(walker.ModeShadow)
	cfg.RAMBytes = 64 << 20
	cfg.HostPageSize = pagetable.Size2M
	vm, err := New(mem, NopMMU{}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := vm.NewProcess(3)
	gva := uint64(0x4000_0000)
	gpa, err := vm.AllocGPA(pagetable.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size2M, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva+0x5000, false); err != nil {
		t.Fatal(err)
	}
	sr, err := ctx.SPT().Lookup(gva)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Size != pagetable.Size2M {
		t.Errorf("shadow size = %v, want 2M", sr.Size)
	}
	// A 2M shadow walk takes 3 references.
	w := walker.New(mem, nil, nil)
	r, f := w.Walk(ctx.Regs(), gva+0x123, false)
	if f != nil {
		t.Fatal(f)
	}
	if r.Refs != 3 {
		t.Errorf("2M shadow walk refs = %d, want 3", r.Refs)
	}
}

func TestTrapKindStringsAndStats(t *testing.T) {
	for k := TrapKind(0); k < NumTrapKinds; k++ {
		if k.String() == "" || k.String()[0] == 'T' {
			t.Errorf("TrapKind(%d).String() = %q", int(k), k.String())
		}
	}
	var s Stats
	s.Traps[TrapPTWrite] = 3
	s.Traps[TrapTLBFlush] = 2
	if s.TotalTraps() != 5 {
		t.Errorf("TotalTraps = %d", s.TotalTraps())
	}
	vm, _ := newTestVM(t, walker.ModeShadow)
	vm.trap(TrapPTWrite)
	if vm.Stats().TrapCycles != DefaultCostModel().Cycles[TrapPTWrite] {
		t.Error("trap cycles not charged")
	}
	vm.ResetStats()
	if vm.Stats().TotalTraps() != 0 {
		t.Error("ResetStats")
	}
}

// memOf exposes the VM's memory for walker construction in tests.
func memOf(vm *VM) *memsim.Memory { return vm.mem }

func TestDedupPagesContentSharing(t *testing.T) {
	vm, mmu := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(3)
	gvaA, gvaB := uint64(0x1000), uint64(0x2000)
	gpaA, _ := vm.AllocGPA(pagetable.Size4K)
	gpaB, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gvaA, gpaA, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := ctx.GPT().Map(gvaB, gpaB, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gvaA, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gvaB, false); err != nil {
		t.Fatal(err)
	}
	framesBefore := memOf(vm).AllocatedFrames()
	if err := vm.DedupPages(gpaA, gpaB); err != nil {
		t.Fatalf("DedupPages: %v", err)
	}
	if got := memOf(vm).AllocatedFrames(); got != framesBefore-1 {
		t.Errorf("frames %d -> %d, want one reclaimed", framesBefore, got)
	}
	hpaA, wA, _ := vm.TranslateGPA(gpaA)
	hpaB, wB, _ := vm.TranslateGPA(gpaB)
	if hpaA != hpaB {
		t.Fatalf("pages not sharing a frame: %#x vs %#x", hpaA, hpaB)
	}
	if wA || wB {
		t.Error("shared pages must be read-only")
	}
	if vm.Stats().PagesDeduped != 1 {
		t.Errorf("PagesDeduped = %d", vm.Stats().PagesDeduped)
	}
	if len(mmu.ntlbDrops) == 0 {
		t.Error("NTLB not invalidated")
	}
	// A guest write breaks the sharing via host COW.
	resolved, err := ctx.HandleWriteProtect(gvaB)
	if err != nil || !resolved {
		t.Fatalf("COW break: %v %v", resolved, err)
	}
	hpaA2, _, _ := vm.TranslateGPA(gpaA)
	hpaB2, wB2, _ := vm.TranslateGPA(gpaB)
	if hpaA2 == hpaB2 || !wB2 {
		t.Errorf("sharing not broken: %#x vs %#x writable=%v", hpaA2, hpaB2, wB2)
	}
	if vm.Stats().Traps[TrapHostFault] != 1 {
		t.Errorf("host fault traps = %d", vm.Stats().Traps[TrapHostFault])
	}
}

func TestDedupPagesErrors(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeNested)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := vm.DedupPages(gpa, gpa); err == nil {
		t.Error("self-dedup accepted")
	}
	if err := vm.DedupPages(gpa, 0xdead0000); err == nil {
		t.Error("dedup of unbacked gpa accepted")
	}
	// Refuse to reclaim page-table pages.
	ctx, _ := vm.NewProcess(5)
	if err := ctx.GPT().Map(0x1000, gpa, pagetable.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	rootGPA := ctx.GPT().Root()
	if err := vm.DedupPages(gpa, rootGPA); err == nil {
		t.Error("dedup of a guest page-table page accepted")
	}
}

func TestAccessorsAndObserver(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeAgile)
	if vm.ID() != 1 {
		t.Errorf("ID = %d", vm.ID())
	}
	if vm.Config().Technique != walker.ModeAgile {
		t.Error("Config")
	}
	var seen []TrapKind
	vm.SetTrapObserver(func(k TrapKind) { seen = append(seen, k) })
	ctx, err := vm.NewProcess(4)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.ASID() != 4 || ctx.VM() != vm {
		t.Error("context accessors")
	}
	if ctx.FullNested() {
		t.Error("fresh agile context should not be fully nested")
	}
	if got, ok := vm.Context(4); !ok || got != ctx {
		t.Error("Context lookup")
	}
	if vm.Current() != ctx {
		t.Error("first process should be current")
	}
	ctx.GuestTLBFlush(0, true) // agile full flush with shadow ambitions: traps
	if len(seen) != 1 || seen[0] != TrapTLBFlush {
		t.Errorf("observer saw %v", seen)
	}
	// SetOracle with a nil-free custom oracle is honored during fills.
	ctx.SetOracle(alwaysNested{})
	gva := uint64(0x1000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.HandleShadowFault(gva, false); err != nil {
		t.Fatal(err)
	}
	// The oracle marks the root nested, so the fill plants a root switch.
	if !ctx.RootSwitch() {
		t.Error("oracle-driven root switch not planted")
	}
}

// alwaysNested marks every node nested.
type alwaysNested struct{}

func (alwaysNested) NodeNested(uint16, uint64) bool { return true }

func TestNopMMUAndDemandBacking(t *testing.T) {
	var n NopMMU
	n.InvalidatePage(1, 0)
	n.FlushASID(1)
	n.PWCInvalidateVA(1, 0)
	n.PWCFlushASID(1)
	n.NTLBInvalidateGPA(1, 0)

	// Host fault on an unbacked gpa demand-backs it.
	vm, _ := newTestVM(t, walker.ModeNested)
	hole := uint64(0x3f00_0000) // inside RAM bounds, never allocated
	if _, _, err := vm.TranslateGPA(hole); err == nil {
		t.Skip("gpa unexpectedly backed")
	}
	if err := vm.HandleHostFault(hole, false); err != nil {
		t.Fatalf("HandleHostFault: %v", err)
	}
	if _, _, err := vm.TranslateGPA(hole); err != nil {
		t.Errorf("gpa not backed after host fault: %v", err)
	}
	if vm.Stats().Traps[TrapHostFault] != 1 {
		t.Errorf("host fault traps = %d", vm.Stats().Traps[TrapHostFault])
	}
}

func TestGuestTableFreeRecyclesGPA(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(8)
	// Build a deep path, unmap it, and prune: table pages return to the
	// guest allocator via FreeTablePage.
	gva := uint64(0x7f00_0000_0000)
	gpa, _ := vm.AllocGPA(pagetable.Size4K)
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.GPT().Unmap(gva, pagetable.Size4K); err != nil {
		t.Fatal(err)
	}
	freed := ctx.GPT().FreeEmpty()
	if freed == 0 {
		t.Fatal("nothing pruned")
	}
	// The freed gpa pages are recycled by the next allocations.
	next, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if next >= vmGpaHighWater(vm) {
		t.Errorf("freed guest table page not recycled: got %#x", next)
	}
}

// vmGpaHighWater exposes the bump pointer for the recycle assertion.
func vmGpaHighWater(vm *VM) uint64 { return vm.gpaNext }

// TestShadowPrefetchSkipsAccessedClearEntries pins the A/D-emulation rule
// for speculative fills: a shadow-fill VM exit prefetches sibling guest
// entries only when the guest already marked them accessed. Prefetching an
// A-clear entry would either fabricate a reference the guest never made or
// hide the first real access from the VMM — both make the guest's clock
// reclaim see different accessed bits than it would natively (found by the
// diffcheck fuzzer as a native-vs-shadow eviction divergence).
func TestShadowPrefetchSkipsAccessedClearEntries(t *testing.T) {
	vm, _ := newTestVM(t, walker.ModeShadow)
	ctx, _ := vm.NewProcess(9)
	base := uint64(0x5000_0000) // aligned to the 8-entry prefetch block
	for i := uint64(0); i < prefetchNum; i++ {
		gpa, err := vm.AllocGPA(pagetable.Size4K)
		if err != nil {
			t.Fatal(err)
		}
		flags := pagetable.FlagWrite | pagetable.FlagUser
		if i%2 == 0 {
			flags |= pagetable.FlagAccessed
		}
		if err := ctx.GPT().Map(base+i*4096, gpa, pagetable.Size4K, flags); err != nil {
			t.Fatal(err)
		}
	}
	// Fault on entry 0 (A set): entries 2, 4, 6 prefetch; 1, 3, 5, 7 must
	// stay unfilled with guest A untouched.
	if _, err := ctx.HandleShadowFault(base, false); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < prefetchNum; i++ {
		gva := base + i*4096
		_, filled := ctx.SPT().TryLookup(gva)
		gr, _ := ctx.GPT().Lookup(gva)
		if i%2 == 0 {
			if !filled {
				t.Errorf("entry %d (A set) not prefetched", i)
			}
			continue
		}
		if filled {
			t.Errorf("entry %d (A clear) was prefetched", i)
		}
		if gr.Entry.Accessed() {
			t.Errorf("entry %d: prefetch set guest A for an untouched page", i)
		}
	}
	// The first real access to an A-clear sibling faults and sets guest A,
	// exactly when a native walk would have.
	if _, err := ctx.HandleShadowFault(base+3*4096, false); err != nil {
		t.Fatal(err)
	}
	gr, _ := ctx.GPT().Lookup(base + 3*4096)
	if !gr.Entry.Accessed() {
		t.Error("guest A not set by the demand fill")
	}
}

// TestGuestTLBFlushSpanSplintered pins the span-flush contract: when the
// host backs a 2M guest page with 4K pages, the hardware TLB can hold up
// to 512 splintered entries for the one guest mapping, so a guest
// invalidation of that page must drop every 4K sub-VA — but it is still a
// single guest instruction, so shadow paging charges exactly one VM exit.
func TestGuestTLBFlushSpanSplintered(t *testing.T) {
	vm, mmu := newTestVM(t, walker.ModeShadow) // host page size 4K
	ctx, _ := vm.NewProcess(4)
	before := vm.Stats().Traps[TrapTLBFlush]
	ctx.GuestTLBFlushSpan(0x4000_0123, pagetable.Size2M)
	if got := len(mmu.invalidates); got != 512 {
		t.Errorf("invalidated %d sub-VAs, want 512", got)
	}
	if len(mmu.invalidates) > 0 {
		if mmu.invalidates[0] != 0x4000_0000 {
			t.Errorf("first invalidation %#x, want span base 0x40000000", mmu.invalidates[0])
		}
	}
	if got := vm.Stats().Traps[TrapTLBFlush] - before; got != 1 {
		t.Errorf("TLB-flush traps = %d, want 1 (one guest instruction)", got)
	}
}

// TestGuestTLBFlushSpanUnsplintered: with the host backing at the guest's
// size there is one hardware entry and the span flush degenerates to the
// single-page GuestTLBFlush.
func TestGuestTLBFlushSpanUnsplintered(t *testing.T) {
	mem := memsim.New(512 << 20)
	mmu := &recordingMMU{}
	cfg := DefaultConfig(walker.ModeShadow)
	cfg.RAMBytes = 64 << 20
	cfg.HostPageSize = pagetable.Size2M
	vm, err := New(mem, mmu, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := vm.NewProcess(4)
	ctx.GuestTLBFlushSpan(0x4000_0123, pagetable.Size2M)
	if got := len(mmu.invalidates); got != 1 {
		t.Errorf("invalidated %d VAs, want 1", got)
	}
}
