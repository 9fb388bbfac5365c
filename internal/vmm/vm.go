package vmm

import (
	"errors"
	"fmt"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// MMU is the hardware-translation coherence interface the VMM drives: when
// page tables change, stale entries must leave the TLBs, page walk caches
// and nested TLB. Package cpu implements it over the real structures.
type MMU interface {
	// InvalidatePage drops TLB entries covering gva in address space asid.
	InvalidatePage(asid uint16, gva uint64)
	// FlushASID drops all non-global TLB entries of asid.
	FlushASID(asid uint16)
	// PWCInvalidateVA drops partial walk translations covering gva.
	PWCInvalidateVA(asid uint16, gva uint64)
	// PWCFlushASID drops all partial walk translations of asid.
	PWCFlushASID(asid uint16)
	// NTLBInvalidateGPA drops the nested-TLB entry of a guest-physical page.
	NTLBInvalidateGPA(vmid uint16, gpa uint64)
}

// NopMMU discards all invalidations; useful for unit tests and trace
// analysis where no hardware structures exist.
type NopMMU struct{}

// InvalidatePage implements MMU.
func (NopMMU) InvalidatePage(uint16, uint64) {}

// FlushASID implements MMU.
func (NopMMU) FlushASID(uint16) {}

// PWCInvalidateVA implements MMU.
func (NopMMU) PWCInvalidateVA(uint16, uint64) {}

// PWCFlushASID implements MMU.
func (NopMMU) PWCFlushASID(uint16) {}

// NTLBInvalidateGPA implements MMU.
func (NopMMU) NTLBInvalidateGPA(uint16, uint64) {}

// Config describes one virtual machine.
type Config struct {
	// Technique is the memory-virtualization technique the VM runs under:
	// walker.ModeNested, ModeShadow, or ModeAgile.
	Technique walker.Mode
	// RAMBytes is the guest-physical memory size.
	RAMBytes uint64
	// HostPageSize is the page size the VMM uses in the host page table.
	HostPageSize pagetable.Size
	// HardwareAD enables the paper's §IV optimization: the MMU propagates
	// accessed/dirty bits to all three tables with an extra nested walk
	// instead of a VM exit.
	HardwareAD bool
	// CtxSwitchCacheEntries sizes the paper's §IV gptr⇒sptr hardware
	// cache (4-8 entries suggested); 0 disables it.
	CtxSwitchCacheEntries int
	// Costs is the VMtrap cost model.
	Costs CostModel
}

// DefaultConfig returns a VM configuration matching the paper's baseline
// hardware: 4K host pages, no optional optimizations.
func DefaultConfig(technique walker.Mode) Config {
	return Config{
		Technique:    technique,
		RAMBytes:     1 << 30,
		HostPageSize: pagetable.Size4K,
		Costs:        DefaultCostModel(),
	}
}

// VM is one virtual machine: a guest-physical address space, its host page
// table, and the shadow contexts of its guest processes.
type VM struct {
	mem *memsim.Memory
	mmu MMU
	id  uint16
	cfg Config

	hpt      *pagetable.Table
	gpaNext  uint64
	gpaLimit uint64
	gpaFree  []uint64

	ctxs    map[uint16]*Context // by ASID
	current *Context

	// ctxCache models the §IV context-switch hardware cache: recently used
	// guest root gPAs whose shadow context can be installed without a trap.
	ctxCache []uint64

	observer func(TrapKind)

	// frames memoizes the host frames behind guest page-table pages for
	// software accesses to guest page tables (see FrameFor).
	frames frameMemo

	stats Stats
}

// frameMemoEntries sizes the guest frame memo. Guest page-table pages are
// few and hot: 256 entries serve 97% of cold Figure 5's lookups.
const frameMemoEntries = 256

// frameMemo is a direct-mapped map from guest frame number to the host
// frame backing it. It saves each software access to a guest page table
// (guest OS updates, shadow fills, write traps, policy scans) a 4-level
// host page-table walk. Those walks are simulator
// bookkeeping, not simulated references (the hardware walker charges its
// own), so no count depends on them.
//
// It is exact because the host mapping of a backed gPA changes only by
// VM.remap (host copy-on-write, page sharing) and by VM.Reset; both clear
// the memo. Backing a hole adds a mapping the memo cannot hold, since only
// successful translations are stored.
type frameMemo [frameMemoEntries]struct {
	gfn   uint64 // guest frame number + 1; 0 marks an empty entry
	frame memsim.Frame
}

// hostFrame returns the host frame backing the guest-physical frame of
// gpa, or false when gpa is not backed.
func (vm *VM) hostFrame(gpa uint64) (memsim.Frame, bool) {
	gfn := gpa >> memsim.FrameShift
	e := &vm.frames[gfn%frameMemoEntries]
	if e.gfn == gfn+1 {
		return e.frame, true
	}
	hpa, _, ok := vm.translateGPA(gpa)
	if !ok {
		return 0, false
	}
	e.gfn, e.frame = gfn+1, memsim.FrameOf(hpa)
	return e.frame, true
}

// remap points the host mapping of the 4K guest page at gpa to hpa with
// flags, dropping the frame memo.
func (vm *VM) remap(gpa, hpa uint64, flags pagetable.Entry) error {
	vm.frames = frameMemo{}
	return vm.hpt.Remap(gpa, hpa, pagetable.Size4K, flags)
}

// ErrGuestOOM is returned when the guest-physical address space is full.
var ErrGuestOOM = errors.New("vmm: guest physical memory exhausted")

// gpaBase is the first usable guest-physical address: guest page 0 stays
// unmapped so a zero gPA can mean "no page".
const gpaBase = 0x1000

// New creates a VM backed by mem, with its guest-physical space starting at
// a fixed base. The MMU hooks may be NopMMU for table-only tests.
func New(mem *memsim.Memory, mmu MMU, id uint16, cfg Config) (*VM, error) {
	if cfg.Technique != walker.ModeNested && cfg.Technique != walker.ModeShadow && cfg.Technique != walker.ModeAgile {
		return nil, fmt.Errorf("vmm: invalid technique %v", cfg.Technique)
	}
	hpt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		return nil, err
	}
	return &VM{
		mem:      mem,
		mmu:      mmu,
		id:       id,
		cfg:      cfg,
		hpt:      hpt,
		gpaNext:  gpaBase,
		gpaLimit: gpaBase + cfg.RAMBytes,
		ctxs:     make(map[uint16]*Context),
	}, nil
}

// Reset restores the VM to its post-New state under cfg, which may differ
// from the construction config only in non-structural fields (cost model,
// hardware A/D, context-switch cache size): all guest contexts and shadow
// tables are dropped and the guest-physical allocator rewinds to its base.
// The caller must have reset the backing Memory first — Reset does not free
// the old host page table's frames individually, it re-roots a fresh one —
// so the frame-allocation sequence after Reset replays exactly as after New.
func (vm *VM) Reset(cfg Config) error {
	if cfg.Technique != walker.ModeNested && cfg.Technique != walker.ModeShadow && cfg.Technique != walker.ModeAgile {
		return fmt.Errorf("vmm: invalid technique %v", cfg.Technique)
	}
	vm.cfg = cfg
	vm.frames = frameMemo{}
	if err := vm.hpt.Reset(); err != nil {
		return err
	}
	vm.gpaNext = gpaBase
	vm.gpaLimit = gpaBase + cfg.RAMBytes
	vm.gpaFree = vm.gpaFree[:0]
	clear(vm.ctxs)
	vm.current = nil
	vm.ctxCache = vm.ctxCache[:0]
	vm.observer = nil
	vm.stats = Stats{}
	return nil
}

// ID returns the VM identifier (nested-TLB tag).
func (vm *VM) ID() uint16 { return vm.id }

// Config returns the VM configuration.
func (vm *VM) Config() Config { return vm.cfg }

// HPT exposes the host page table (read-mostly; tests and the dirty-bit
// policy inspect it). Callers may change flags through it but never remap
// or unmap a page, which would bypass the frame memo.
func (vm *VM) HPT() *pagetable.Table { return vm.hpt }

// Stats returns a copy of the accumulated VMM counters.
func (vm *VM) Stats() Stats { return vm.stats }

// ResetStats zeroes the VMM counters.
func (vm *VM) ResetStats() { vm.stats = Stats{} }

// SetTrapObserver installs a callback invoked on every VM exit — the
// analog of the paper's instrumented trace-cmd/KVM tracing (§VI step 1).
func (vm *VM) SetTrapObserver(fn func(TrapKind)) { vm.observer = fn }

// trap charges one VM exit of the given kind.
func (vm *VM) trap(kind TrapKind) {
	vm.stats.Traps[kind]++
	vm.stats.TrapCycles += vm.cfg.Costs.Cycles[kind]
	if vm.observer != nil {
		vm.observer(kind)
	}
}

// AllocGPA allocates one naturally-aligned guest-physical page of the given
// size and backs it with host memory. This models the guest OS's own frame
// allocator handing out guest RAM that the VMM backed at VM creation.
func (vm *VM) AllocGPA(size pagetable.Size) (uint64, error) {
	if size == pagetable.Size4K && len(vm.gpaFree) > 0 {
		gpa := vm.gpaFree[len(vm.gpaFree)-1]
		vm.gpaFree = vm.gpaFree[:len(vm.gpaFree)-1]
		return gpa, nil
	}
	gpa := (vm.gpaNext + size.Mask()) &^ size.Mask()
	if gpa+size.Bytes() > vm.gpaLimit {
		return 0, ErrGuestOOM
	}
	vm.gpaNext = gpa + size.Bytes()
	if err := vm.back(gpa, size); err != nil {
		return 0, err
	}
	return gpa, nil
}

// FreeGPA returns a 4K guest page to the guest allocator. Larger pages are
// not recycled (the workloads in this reproduction never need it).
func (vm *VM) FreeGPA(gpa uint64, size pagetable.Size) {
	if size == pagetable.Size4K {
		vm.gpaFree = append(vm.gpaFree, gpa)
	}
}

// back populates the host page table for [gpa, gpa+size) using the VM's
// host page size.
func (vm *VM) back(gpa uint64, size pagetable.Size) error {
	hps := vm.cfg.HostPageSize
	if hps.Bytes() > size.Bytes() {
		hps = size // never back a small guest page with a larger host page alone
	}
	for off := uint64(0); off < size.Bytes(); off += hps.Bytes() {
		g := gpa + off
		if _, ok := vm.hpt.TryLookup(g); ok {
			continue // already backed (e.g. inside an earlier 2M host page)
		}
		base := g &^ hps.Mask()
		if _, ok := vm.hpt.TryLookup(base); ok {
			continue
		}
		n := int(hps.Bytes() / memsim.FrameSize)
		f, err := vm.mem.AllocContiguousAligned(n, n)
		if err != nil {
			return err
		}
		if err := vm.hpt.Map(base, f.Addr(), hps, pagetable.FlagWrite); err != nil {
			return err
		}
	}
	return nil
}

// TranslateGPA software-walks the host page table.
func (vm *VM) TranslateGPA(gpa uint64) (hpa uint64, writable bool, err error) {
	r, ok := vm.hpt.TryLookup(gpa)
	if !ok {
		_, err = vm.hpt.Lookup(gpa) // build the descriptive miss error
		return 0, false, err
	}
	return r.PA, r.Entry.Writable(), nil
}

// translateGPA is TranslateGPA for hot callers that treat a miss as a
// boolean condition; it never allocates.
func (vm *VM) translateGPA(gpa uint64) (hpa uint64, writable, ok bool) {
	r, ok := vm.hpt.TryLookup(gpa)
	if !ok {
		return 0, false, false
	}
	return r.PA, r.Entry.Writable(), true
}

// HandleHostFault services a host page table violation (VM exit). With the
// default eager backing this only fires for guest-physical holes, which are
// guest bugs; it is exercised by the host copy-on-write path.
func (vm *VM) HandleHostFault(gpa uint64, write bool) error {
	vm.trap(TrapHostFault)
	if _, ok := vm.hpt.TryLookup(gpa); !ok {
		return vm.back(gpa&^vm.cfg.HostPageSize.Mask(), vm.cfg.HostPageSize)
	}
	if write {
		return vm.resolveHostCOW(gpa)
	}
	return nil
}

// DedupPages implements the VMM side of content-based page sharing (paper
// §V): after a scan finds gpaA and gpaB hold identical content, gpaB's host
// mapping is pointed at gpaA's frame, both become read-only, and gpaB's old
// frame is reclaimed. The first guest write to either page breaks the
// sharing through the host copy-on-write path (a VM exit).
func (vm *VM) DedupPages(gpaA, gpaB uint64) error {
	ra, err := vm.hpt.Lookup(gpaA)
	if err != nil {
		return err
	}
	rb, err := vm.hpt.Lookup(gpaB)
	if err != nil {
		return err
	}
	if ra.Size != pagetable.Size4K || rb.Size != pagetable.Size4K {
		return fmt.Errorf("vmm: dedup of %s/%s pages not supported", ra.Size, rb.Size)
	}
	baseA := gpaA &^ pagetable.Size4K.Mask()
	baseB := gpaB &^ pagetable.Size4K.Mask()
	if baseA == baseB {
		return fmt.Errorf("vmm: dedup of a page with itself (gpa %#x)", baseA)
	}
	oldFrame := memsim.FrameOf(rb.Entry.Addr())
	if vm.mem.IsTable(oldFrame) {
		// Never reclaim a frame that holds a live page-table page.
		return fmt.Errorf("vmm: refusing to dedup guest page-table page %#x", baseB)
	}
	if err := vm.remap(baseB, ra.Entry.Addr(), 0); err != nil {
		return err
	}
	if err := vm.hpt.ClearFlags(baseA, pagetable.FlagWrite); err != nil {
		return err
	}
	if err := vm.mem.FreeFrame(oldFrame); err != nil {
		return err
	}
	vm.stats.PagesDeduped++
	for _, gpa := range []uint64{baseA, baseB} {
		vm.mmu.NTLBInvalidateGPA(vm.id, gpa)
		for _, ctx := range vm.ctxs {
			ctx.hostPageChanged(gpa)
		}
	}
	return nil
}

// resolveHostCOW gives gpa a private writable host frame again.
func (vm *VM) resolveHostCOW(gpa uint64) error {
	f, err := vm.mem.AllocFrame()
	if err != nil {
		return err
	}
	base := gpa &^ pagetable.Size4K.Mask()
	r, err := vm.hpt.Lookup(base)
	if err != nil {
		return err
	}
	if r.Size != pagetable.Size4K {
		return fmt.Errorf("vmm: host COW on %s page not supported", r.Size)
	}
	if err := vm.remap(base, f.Addr(), pagetable.FlagWrite); err != nil {
		return err
	}
	vm.mmu.NTLBInvalidateGPA(vm.id, base)
	for _, ctx := range vm.ctxs {
		ctx.hostPageChanged(base)
	}
	return nil
}

// ContextSwitch installs the context of the process whose guest page table
// root is gptRoot. Under nested paging the guest's CR3 write is not
// intercepted. Under shadow and agile paging it traps so the VMM can find
// the matching shadow root — unless the §IV context-switch cache holds the
// pair (paper §IV "Context-Switches").
func (vm *VM) ContextSwitch(asid uint16) (walker.Regs, error) {
	ctx, ok := vm.ctxs[asid]
	if !ok {
		return walker.Regs{}, fmt.Errorf("vmm: unknown context asid=%d", asid)
	}
	if vm.cfg.Technique != walker.ModeNested && !ctx.fullNested {
		if vm.ctxCacheHit(ctx.gpt.Root()) {
			vm.stats.CtxCacheHits++
		} else {
			vm.trap(TrapContextSwitch)
			vm.ctxCacheInsert(ctx.gpt.Root())
		}
	}
	vm.current = ctx
	return ctx.Regs(), nil
}

// Current returns the currently installed context, or nil.
func (vm *VM) Current() *Context { return vm.current }

// Context returns the context registered for asid.
func (vm *VM) Context(asid uint16) (*Context, bool) {
	ctx, ok := vm.ctxs[asid]
	return ctx, ok
}

// EachContext calls fn for every registered guest-process context, in
// unspecified order. Telemetry uses it to aggregate per-context gauges
// (order-independent sums) without exposing the context map.
func (vm *VM) EachContext(fn func(*Context)) {
	for _, ctx := range vm.ctxs {
		fn(ctx)
	}
}

func (vm *VM) ctxCacheHit(gptRoot uint64) bool {
	for i, g := range vm.ctxCache {
		if g == gptRoot {
			// Move to MRU position.
			copy(vm.ctxCache[1:i+1], vm.ctxCache[:i])
			vm.ctxCache[0] = gptRoot
			return true
		}
	}
	return false
}

func (vm *VM) ctxCacheInsert(gptRoot uint64) {
	n := vm.cfg.CtxSwitchCacheEntries
	if n <= 0 {
		return
	}
	vm.ctxCache = append([]uint64{gptRoot}, vm.ctxCache...)
	if len(vm.ctxCache) > n {
		vm.ctxCache = vm.ctxCache[:n]
	}
}

// guestPhysSpace adapts the VM's guest-physical memory to pagetable.Space
// so guest page tables can be built in guest RAM.
type guestPhysSpace struct{ vm *VM }

// FrameFor implements pagetable.Space. The host frame comes from the VM's
// frame memo; whether it holds a table is checked on every call, since a
// recycled guest page can become a table page without a host remap.
func (g guestPhysSpace) FrameFor(pa uint64) (memsim.Frame, bool) {
	f, ok := g.vm.hostFrame(pa)
	if !ok || !g.vm.mem.IsTable(f) {
		return 0, false
	}
	return f, true
}

// AllocTablePage implements pagetable.Space.
func (g guestPhysSpace) AllocTablePage() (uint64, error) {
	gpa, err := g.vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		return 0, err
	}
	hpa, _, err := g.vm.TranslateGPA(gpa)
	if err != nil {
		return 0, err
	}
	if err := g.vm.mem.MaterializeTable(memsim.FrameOf(hpa)); err != nil {
		return 0, err
	}
	// The guest OS zeroes a page before using it as a page table. Guest
	// table frames stay materialized across FreeTablePage (the host frame
	// is still guest RAM), so a recycled gPA could otherwise resurface with
	// the previous table's entries.
	g.vm.mem.ZeroTable(memsim.FrameOf(hpa))
	return gpa, nil
}

// FreeTablePage implements pagetable.Space.
func (g guestPhysSpace) FreeTablePage(pa uint64) error {
	g.vm.FreeGPA(pa, pagetable.Size4K)
	return nil
}
