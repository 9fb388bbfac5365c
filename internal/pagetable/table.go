package pagetable

import (
	"errors"
	"fmt"

	"agilepaging/internal/memsim"
)

// Errors returned by table operations.
//
// Concurrency contract: these are the package's only package-level
// variables; they are assigned once at init and never written again.
// Table instances themselves are not goroutine-safe — each parallel sweep
// job builds its tables inside its own cpu.Machine and never shares them.
var (
	ErrNotMapped     = errors.New("pagetable: address not mapped")
	ErrAlreadyMapped = errors.New("pagetable: address already mapped")
	ErrMisaligned    = errors.New("pagetable: misaligned address")
	ErrSplinter      = errors.New("pagetable: mapping conflicts with existing large page")
	ErrSwitching     = errors.New("pagetable: walk path blocked by a switching entry")
)

// Space abstracts the address space the table's pointers are expressed in.
//
// A native or host page table stores host-physical addresses, so its Space
// is the identity over host frames. A *guest* page table stores
// guest-physical addresses and its own pages live at guest-physical
// addresses; its Space translates gPA to the backing host frame via the
// VM's host page table. This separation is what lets the nested walker
// charge host-walk references for each guest-table access while the
// software code paths share one implementation.
type Space interface {
	// FrameFor returns the host frame backing the table page that starts
	// at in-space physical address pa.
	FrameFor(pa uint64) (memsim.Frame, bool)
	// AllocTablePage allocates a zeroed table page in this space and
	// returns its in-space physical address.
	AllocTablePage() (uint64, error)
	// FreeTablePage releases a table page previously returned by
	// AllocTablePage.
	FreeTablePage(pa uint64) error
}

// HostSpace is the identity Space over host physical memory.
type HostSpace struct {
	Mem *memsim.Memory
}

// FrameFor implements Space.
func (h HostSpace) FrameFor(pa uint64) (memsim.Frame, bool) {
	f := memsim.FrameOf(pa)
	if !h.Mem.IsTable(f) {
		return 0, false
	}
	return f, true
}

// AllocTablePage implements Space.
func (h HostSpace) AllocTablePage() (uint64, error) {
	f, err := h.Mem.AllocTable()
	if err != nil {
		return 0, err
	}
	return f.Addr(), nil
}

// FreeTablePage implements Space.
func (h HostSpace) FreeTablePage(pa uint64) error {
	return h.Mem.FreeFrame(memsim.FrameOf(pa))
}

// WriteHook observes every entry write performed through a Table. The VMM
// installs one on each guest page table to model write-protection traps and
// shadow-page-table coherence (paper §III-B): pageAddr is the in-space
// address of the table page written, level its depth (0 = root), idx the
// entry index, and old/new the entry values.
type WriteHook func(pageAddr uint64, level, idx int, old, new Entry)

// FreeHook observes every table page released back to the Space by a
// structural prune (FreeEmpty). The VMM installs one
// on each guest page table so it can tear down write-protect tracking and
// the covering shadow subtree *before* the guest table page is freed — the
// shadow-invalidation contract for structural guest page-table edits. The
// hook fires with the page still registered (Info still answers for it) and
// before the Space reclaims it.
type FreeHook func(pageAddr uint64, level int, vaBase uint64)

// Table is a four-level hierarchical page table.
type Table struct {
	mem   *memsim.Memory
	space Space
	root  uint64
	hook  WriteHook
	fhook FreeHook

	// levelOf records the depth of every table page so hooks and scans can
	// attribute writes to a page-table level, keyed by in-space address.
	levelOf map[uint64]int
	// vaBaseOf records the lowest virtual address each table page covers,
	// so the VMM can map a PT-page write back to the gVA range it affects.
	vaBaseOf map[uint64]uint64
}

// PageInfo describes one of the table's own pages.
type PageInfo struct {
	Level  int
	VABase uint64
}

// Info returns the level and covered VA base of the table page at in-space
// address pa.
func (t *Table) Info(pa uint64) (PageInfo, bool) {
	l, ok := t.levelOf[pa]
	if !ok {
		return PageInfo{}, false
	}
	return PageInfo{Level: l, VABase: t.vaBaseOf[pa]}, true
}

// SpanAtLevel returns the number of bytes of virtual address space covered
// by one entry at the given level: a level-3 (leaf) entry covers 4 KiB, a
// level-0 entry covers 512 GiB.
func SpanAtLevel(level int) uint64 {
	return 1 << (39 - uint(level)*9)
}

// New allocates an empty table in the given space.
func New(mem *memsim.Memory, space Space) (*Table, error) {
	root, err := space.AllocTablePage()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating root: %w", err)
	}
	t := &Table{
		mem:      mem,
		space:    space,
		root:     root,
		levelOf:  map[uint64]int{root: 0},
		vaBaseOf: map[uint64]uint64{root: 0},
	}
	return t, nil
}

// Root returns the in-space physical address of the root table page (the
// value loaded into the corresponding page-table pointer register).
func (t *Table) Root() uint64 { return t.root }

// Space returns the table's address space.
func (t *Table) Space() Space { return t.space }

// SetWriteHook installs h as the observer of all entry writes. Passing nil
// removes the hook.
func (t *Table) SetWriteHook(h WriteHook) { t.hook = h }

// SetFreeHook installs h as the observer of all table-page frees performed
// by FreeEmpty. Passing nil removes the hook.
func (t *Table) SetFreeHook(h FreeHook) { t.fhook = h }

// LevelOf reports the level of the table page at in-space address pa, or
// -1 if pa is not one of this table's pages.
func (t *Table) LevelOf(pa uint64) int {
	if l, ok := t.levelOf[pa]; ok {
		return l
	}
	return -1
}

// TablePages returns the in-space addresses of all the table's pages along
// with their levels. The VMM's dirty-bit policy scans these (paper §III-C).
func (t *Table) TablePages() map[uint64]int {
	out := make(map[uint64]int, len(t.levelOf))
	for pa, l := range t.levelOf {
		out[pa] = l
	}
	return out
}

// frame resolves an in-space table-page address to its host frame.
func (t *Table) frame(pa uint64) memsim.Frame {
	f, ok := t.space.FrameFor(pa)
	if !ok {
		panic(fmt.Sprintf("pagetable: table page %#x not backed", pa))
	}
	return f
}

// readEntry reads an entry of the table page at in-space address pageAddr.
func (t *Table) readEntry(pageAddr uint64, idx int) Entry {
	return Entry(t.mem.ReadEntry(t.frame(pageAddr), idx))
}

// writeEntry writes an entry and fires the write hook.
func (t *Table) writeEntry(pageAddr uint64, level, idx int, val Entry) {
	f := t.frame(pageAddr)
	old := Entry(t.mem.ReadEntry(f, idx))
	t.mem.WriteEntry(f, idx, uint64(val))
	if t.hook != nil {
		t.hook(pageAddr, level, idx, old, val)
	}
}

// ensureTable walks one level down from the entry at (pageAddr, level, idx),
// allocating the next-level table if absent, and returns its address.
// vaBase is the lowest VA covered by the table page at pageAddr.
func (t *Table) ensureTable(pageAddr uint64, level, idx int, vaBase uint64) (uint64, error) {
	e := t.readEntry(pageAddr, idx)
	if e.Present() {
		if e.Huge() {
			return 0, ErrSplinter
		}
		if e.Switching() {
			// A switching entry's address is a *guest* table pointer in
			// another physical space (paper §III-A); descending through it
			// would walk foreign memory.
			return 0, ErrSwitching
		}
		return e.Addr(), nil
	}
	next, err := t.space.AllocTablePage()
	if err != nil {
		return 0, err
	}
	t.levelOf[next] = level + 1
	t.vaBaseOf[next] = vaBase | uint64(idx)*SpanAtLevel(level)
	t.writeEntry(pageAddr, level, idx, MakeEntry(next, FlagPresent|FlagWrite|FlagUser))
	return next, nil
}

// Map installs a translation va⇒pa of the given size with the given leaf
// flags (FlagPresent is implied; FlagHuge is implied for 2M/1G sizes).
// Both va and pa must be size-aligned. Mapping over an existing present
// leaf returns ErrAlreadyMapped.
func (t *Table) Map(va, pa uint64, size Size, flags Entry) error {
	if va&size.Mask() != 0 || pa&size.Mask() != 0 {
		return fmt.Errorf("%w: va=%#x pa=%#x size=%s", ErrMisaligned, va, pa, size)
	}
	leaf := size.LeafLevel()
	pageAddr := t.root
	for level := 0; level < leaf; level++ {
		next, err := t.ensureTable(pageAddr, level, IndexAt(va, level), va&^(SpanAtLevel(level)-1))
		if err != nil {
			return err
		}
		pageAddr = next
	}
	idx := IndexAt(va, leaf)
	if t.readEntry(pageAddr, idx).Present() {
		return fmt.Errorf("%w: va=%#x", ErrAlreadyMapped, va)
	}
	if size != Size4K {
		flags |= FlagHuge
	}
	t.writeEntry(pageAddr, leaf, idx, MakeEntry(pa, flags|FlagPresent))
	return nil
}

// Remap replaces the leaf entry for va (which must exist at exactly the
// given size) with a mapping to pa carrying the given flags. Used for COW
// resolution and page migration.
func (t *Table) Remap(va, pa uint64, size Size, flags Entry) error {
	pageAddr, idx, level, err := t.leafSlot(va, size)
	if err != nil {
		return err
	}
	if size != Size4K {
		flags |= FlagHuge
	}
	t.writeEntry(pageAddr, level, idx, MakeEntry(pa, flags|FlagPresent))
	return nil
}

// Unmap removes the translation for va at the given size. The intermediate
// tables are retained (as OS kernels typically do on munmap of small
// ranges); FreeEmpty prunes them explicitly.
func (t *Table) Unmap(va uint64, size Size) error {
	pageAddr, idx, level, err := t.leafSlot(va, size)
	if err != nil {
		return err
	}
	t.writeEntry(pageAddr, level, idx, 0)
	return nil
}

// leafSlot locates the present leaf entry mapping va at exactly the given
// size and returns its slot.
func (t *Table) leafSlot(va uint64, size Size) (pageAddr uint64, idx, level int, err error) {
	if va&size.Mask() != 0 {
		return 0, 0, 0, fmt.Errorf("%w: va=%#x size=%s", ErrMisaligned, va, size)
	}
	leaf := size.LeafLevel()
	pageAddr = t.root
	for level = 0; level < leaf; level++ {
		e := t.readEntry(pageAddr, IndexAt(va, level))
		if !e.Present() {
			return 0, 0, 0, fmt.Errorf("%w: va=%#x (no level-%d table)", ErrNotMapped, va, level+1)
		}
		if e.Huge() {
			return 0, 0, 0, fmt.Errorf("%w: va=%#x mapped by level-%d large page", ErrSplinter, va, level)
		}
		if e.Switching() {
			return 0, 0, 0, fmt.Errorf("%w: va=%#x at level %d", ErrSwitching, va, level)
		}
		pageAddr = e.Addr()
	}
	idx = IndexAt(va, leaf)
	if !t.readEntry(pageAddr, idx).Present() {
		return 0, 0, 0, fmt.Errorf("%w: va=%#x", ErrNotMapped, va)
	}
	return pageAddr, idx, leaf, nil
}

// WalkResult describes a successful software lookup.
type WalkResult struct {
	Entry Entry  // the leaf entry
	Level int    // level of the leaf entry (0 = root)
	Size  Size   // page size of the mapping
	PA    uint64 // translated physical address of va (page base + offset)
}

// Lookup performs a software walk of the table (no hardware accounting) and
// returns the leaf translation for va.
func (t *Table) Lookup(va uint64) (WalkResult, error) {
	r, level, ok := t.lookup(va)
	if !ok {
		return WalkResult{}, fmt.Errorf("%w: va=%#x at level %d", ErrNotMapped, va, level)
	}
	return r, nil
}

// TryLookup is Lookup for callers that treat a miss as a boolean condition
// rather than an error: the software fault and shadow-fill paths probe
// tables constantly, and constructing a descriptive error for every miss
// was a measurable share of the simulation loop.
func (t *Table) TryLookup(va uint64) (WalkResult, bool) {
	r, _, ok := t.lookup(va)
	return r, ok
}

// lookup walks the table; on a miss it reports the level that terminated
// the walk.
func (t *Table) lookup(va uint64) (WalkResult, int, bool) {
	pageAddr := t.root
	for level := 0; level < NumLevels; level++ {
		e := t.readEntry(pageAddr, IndexAt(va, level))
		if !e.Present() {
			return WalkResult{}, level, false
		}
		size, leafOK := SizeAtLevel(level)
		if level == NumLevels-1 || (e.Huge() && leafOK) {
			return WalkResult{
				Entry: e,
				Level: level,
				Size:  size,
				PA:    e.Addr() | va&size.Mask(),
			}, level, true
		}
		if e.Switching() {
			// The translation continues in another table (nested mode); it
			// does not terminate in this one.
			return WalkResult{}, level, false
		}
		pageAddr = e.Addr()
	}
	panic("pagetable: unreachable")
}

// SetFlags ORs flags into the leaf entry mapping va (any size).
func (t *Table) SetFlags(va uint64, flags Entry) error {
	return t.updateLeaf(va, func(e Entry) Entry { return e.WithFlags(flags) })
}

// ClearFlags removes flags from the leaf entry mapping va (any size).
func (t *Table) ClearFlags(va uint64, flags Entry) error {
	return t.updateLeaf(va, func(e Entry) Entry { return e.WithoutFlags(flags) })
}

// updateLeaf applies fn to the leaf entry mapping va at whatever size it is
// mapped.
func (t *Table) updateLeaf(va uint64, fn func(Entry) Entry) error {
	pageAddr := t.root
	for level := 0; level < NumLevels; level++ {
		idx := IndexAt(va, level)
		e := t.readEntry(pageAddr, idx)
		if !e.Present() {
			return fmt.Errorf("%w: va=%#x at level %d", ErrNotMapped, va, level)
		}
		_, leafOK := SizeAtLevel(level)
		if level == NumLevels-1 || (e.Huge() && leafOK) {
			t.writeEntry(pageAddr, level, idx, fn(e))
			return nil
		}
		if e.Switching() {
			return fmt.Errorf("%w: va=%#x at level %d", ErrSwitching, va, level)
		}
		pageAddr = e.Addr()
	}
	panic("pagetable: unreachable")
}

// EntryAt returns the raw entry at the given level along va's walk path,
// without requiring the walk to terminate there.
func (t *Table) EntryAt(va uint64, level int) (Entry, error) {
	if level < 0 || level >= NumLevels {
		return 0, fmt.Errorf("pagetable: invalid level %d", level)
	}
	pageAddr := t.root
	for l := 0; l < level; l++ {
		e := t.readEntry(pageAddr, IndexAt(va, l))
		if !e.Present() || e.Huge() {
			return 0, fmt.Errorf("%w: va=%#x has no level-%d entry", ErrNotMapped, va, level)
		}
		if e.Switching() {
			return 0, fmt.Errorf("%w: va=%#x at level %d", ErrSwitching, va, l)
		}
		pageAddr = e.Addr()
	}
	return t.readEntry(pageAddr, IndexAt(va, level)), nil
}

// SetEntryAt overwrites the raw entry at the given level along va's walk
// path. It is used by the VMM to plant switching-bit entries in shadow
// tables; the intermediate path must already exist.
func (t *Table) SetEntryAt(va uint64, level int, val Entry) error {
	if level < 0 || level >= NumLevels {
		return fmt.Errorf("pagetable: invalid level %d", level)
	}
	pageAddr := t.root
	for l := 0; l < level; l++ {
		e := t.readEntry(pageAddr, IndexAt(va, l))
		if !e.Present() || e.Huge() {
			return fmt.Errorf("%w: va=%#x has no level-%d entry", ErrNotMapped, va, level)
		}
		if e.Switching() {
			return fmt.Errorf("%w: va=%#x at level %d", ErrSwitching, va, l)
		}
		pageAddr = e.Addr()
	}
	t.writeEntry(pageAddr, level, IndexAt(va, level), val)
	return nil
}

// EnsurePath materializes intermediate tables so that a level-`level` entry
// exists along va's walk path, and returns the address of the table page
// holding that entry. Used by the VMM when building partial shadow tables.
func (t *Table) EnsurePath(va uint64, level int) (uint64, error) {
	if level < 0 || level >= NumLevels {
		return 0, fmt.Errorf("pagetable: invalid level %d", level)
	}
	pageAddr := t.root
	for l := 0; l < level; l++ {
		next, err := t.ensureTable(pageAddr, l, IndexAt(va, l), va&^(SpanAtLevel(l)-1))
		if err != nil {
			return 0, err
		}
		pageAddr = next
	}
	return pageAddr, nil
}

// Leaf describes one present leaf mapping encountered by VisitLeaves.
type Leaf struct {
	VA    uint64
	Entry Entry
	Size  Size
}

// VisitLeaves calls fn for every present leaf mapping in the table, in
// ascending VA order. If fn returns false the walk stops.
func (t *Table) VisitLeaves(fn func(Leaf) bool) {
	t.visit(t.root, 0, 0, fn)
}

func (t *Table) visit(pageAddr uint64, level int, vaBase uint64, fn func(Leaf) bool) bool {
	for idx := 0; idx < memsim.EntriesPerTable; idx++ {
		e := t.readEntry(pageAddr, idx)
		if !e.Present() {
			continue
		}
		va := vaBase | uint64(idx)<<(39-uint(level)*9)
		size, leafOK := SizeAtLevel(level)
		if level == NumLevels-1 || (e.Huge() && leafOK) {
			if !fn(Leaf{VA: va, Entry: e, Size: size}) {
				return false
			}
			continue
		}
		if e.Switching() {
			continue // translation continues in another table; no leaf here
		}
		if !t.visit(e.Addr(), level+1, va, fn) {
			return false
		}
	}
	return true
}

// CountLeaves returns the number of present leaf mappings.
func (t *Table) CountLeaves() int {
	n := 0
	t.VisitLeaves(func(Leaf) bool { n++; return true })
	return n
}

// FreeEmpty prunes interior table pages that no longer contain any present
// entries, returning the number of pages freed. The root is never freed.
// Each freed page is announced through the free hook first, so a VMM can
// invalidate derived shadow state before the page returns to the Space.
func (t *Table) FreeEmpty() int {
	freed := 0
	var prune func(pageAddr uint64, level int) bool // returns "page is empty"
	prune = func(pageAddr uint64, level int) bool {
		empty := true
		for idx := 0; idx < memsim.EntriesPerTable; idx++ {
			e := t.readEntry(pageAddr, idx)
			if !e.Present() {
				continue
			}
			_, leafOK := SizeAtLevel(level)
			if level == NumLevels-1 || (e.Huge() && leafOK) {
				empty = false
				continue
			}
			if e.Switching() {
				// The target is a table page of another space; it is not
				// ours to scan or free.
				empty = false
				continue
			}
			if prune(e.Addr(), level+1) {
				child := e.Addr()
				t.writeEntry(pageAddr, level, idx, 0)
				freed += t.freePage(child)
			} else {
				empty = false
			}
		}
		return empty
	}
	prune(t.root, 0)
	return freed
}

// freePage announces and releases one of the table's own pages, returning 1
// if the Space accepted the free. The hook fires while the page is still
// registered, so Info answers for it inside the callback.
func (t *Table) freePage(pageAddr uint64) int {
	if t.fhook != nil {
		t.fhook(pageAddr, t.levelOf[pageAddr], t.vaBaseOf[pageAddr])
	}
	delete(t.levelOf, pageAddr)
	delete(t.vaBaseOf, pageAddr)
	if err := t.space.FreeTablePage(pageAddr); err != nil {
		return 0
	}
	return 1
}

// ZapSubtree clears the entry at the given level along va's walk path and
// releases every page of this table reachable only through it. It is the
// subtree form of shadow invalidation: when a guest prunes a table page, the
// VMM must drop the whole covering shadow subtree, not just one entry.
//
// A switching entry at the target slot is cleared without being
// dereferenced (its address belongs to another table). A switching entry or
// hole anywhere above the target means no state of this table covers va at
// that level, so there is nothing to zap. It reports whether an entry was
// cleared and how many table pages were freed.
func (t *Table) ZapSubtree(va uint64, level int) (zapped bool, freed int) {
	if level < 0 || level >= NumLevels {
		return false, 0
	}
	pageAddr := t.root
	for l := 0; l < level; l++ {
		e := t.readEntry(pageAddr, IndexAt(va, l))
		if !e.Present() || e.Huge() || e.Switching() {
			return false, 0
		}
		pageAddr = e.Addr()
	}
	idx := IndexAt(va, level)
	e := t.readEntry(pageAddr, idx)
	if !e.Present() {
		return false, 0
	}
	if !e.Switching() {
		_, leafOK := SizeAtLevel(level)
		if level != NumLevels-1 && !(e.Huge() && leafOK) {
			freed = t.freeSubtree(e.Addr(), level+1)
		}
	}
	t.writeEntry(pageAddr, level, idx, 0)
	return true, freed
}

// freeSubtree releases the table page at pageAddr and everything below it
// (the slot pointing at it has already been, or is about to be, cleared).
// Switching entries are left alone: their targets live in another table.
func (t *Table) freeSubtree(pageAddr uint64, level int) int {
	freed := 0
	for idx := 0; idx < memsim.EntriesPerTable; idx++ {
		e := t.readEntry(pageAddr, idx)
		if !e.Present() || e.Switching() {
			continue
		}
		_, leafOK := SizeAtLevel(level)
		if level == NumLevels-1 || (e.Huge() && leafOK) {
			continue
		}
		freed += t.freeSubtree(e.Addr(), level+1)
	}
	return freed + t.freePage(pageAddr)
}

// Reset discards every mapping and re-roots the table on a freshly
// allocated page, restoring the state New left it in. The write hook is
// retained (it is part of the table's wiring, not its run state). Callers
// that reset the underlying Memory wholesale may skip per-page frees and
// call Reset directly; the stale frames were already reclaimed.
func (t *Table) Reset() error {
	clear(t.levelOf)
	clear(t.vaBaseOf)
	root, err := t.space.AllocTablePage()
	if err != nil {
		return fmt.Errorf("pagetable: reallocating root: %w", err)
	}
	t.root = root
	t.levelOf[root] = 0
	t.vaBaseOf[root] = 0
	return nil
}
