package workload

import (
	"math/rand"

	"agilepaging/internal/pagetable"
)

// Profile parameterizes a synthetic workload.
type Profile struct {
	Name           string
	FootprintBytes uint64
	Pattern        PatternKind
	ZipfS          float64
	WriteRatio     float64
	// PrePopulate maps the main footprint eagerly during setup, so demand
	// faults do not dominate the steady phase (static workloads like mcf).
	PrePopulate bool

	// Processes round-robin on the CPU; CtxSwitchEvery accesses separate
	// switches (0 disables).
	Processes      int
	CtxSwitchEvery int

	// Threads spreads process 0's steady-phase accesses over this many
	// CPU cores (shared address space, per-core TLBs — the PARSEC
	// multithreaded workloads). 0 or 1 = single-threaded.
	Threads int

	// Mmap churn: every MmapChurnEvery accesses, the oldest of ChurnRegions
	// transient regions is unmapped and a fresh one mapped and touched —
	// allocation-heavy behaviour (dedup, gcc).
	MmapChurnEvery   int
	ChurnRegionBytes uint64
	ChurnRegions     int

	// COW churn: every CowEvery accesses, a CowRegionBytes region is marked
	// copy-on-write and then written through (content sharing / snapshot
	// behaviour).
	CowEvery       int
	CowRegionBytes uint64

	// Reclaim: every ReclaimEvery accesses the guest clock reclaimer scans
	// ReclaimPages pages (memory-pressure behaviour, paper §V).
	ReclaimEvery int
	ReclaimPages int

	// THP collapse: every CollapseEvery accesses, a rotating 2M-aligned
	// chunk of the current process's main footprint is fully written (so
	// khugepaged would deem it hot and fully populated) and then collapsed
	// into a 2M mapping — the structural page-table rewrite of paper §V
	// "Large Page Support". Only meaningful with a 4K page-size policy;
	// ignored otherwise. 0 disables.
	CollapseEvery int
}

// Synthetic is the deterministic op-stream generator for a Profile.
type Synthetic struct {
	prof     Profile
	pageSize pagetable.Size
	accesses int
	seed     int64

	rng *rand.Rand
	pat *pattern
	// queue/head form a FIFO: push appends, pop advances head, and the
	// buffer rewinds to its start whenever it drains. Burst ops (churn,
	// COW write-through) therefore reuse one steady-state allocation
	// instead of re-growing a sliding slice on every burst.
	queue       []Op
	head        int
	emitted     int // steady-phase accesses emitted so far
	curPID      int
	churnGen    map[int]int // churn events so far, per process
	collapseGen map[int]int // collapse events so far, per process
	cowBase     uint64
	cowReady    bool
	done        bool
}

// New creates a generator that will emit the setup ops for prof and then
// `accesses` steady-phase access ops at the given page-size policy.
func New(prof Profile, pageSize pagetable.Size, accesses int, seed int64) *Synthetic {
	if prof.Processes < 1 {
		prof.Processes = 1
	}
	if prof.Threads < 1 {
		prof.Threads = 1
	}
	g := &Synthetic{prof: prof, pageSize: pageSize, accesses: accesses, seed: seed}
	g.init()
	return g
}

func (g *Synthetic) init() {
	g.rng = rand.New(rand.NewSource(g.seed))
	pages := g.prof.FootprintBytes / g.pageSize.Bytes()
	g.pat = newPattern(g.prof.Pattern, pages, g.prof.ZipfS, g.rng)
	g.queue = g.queue[:0]
	g.head = 0
	g.emitted = 0
	g.curPID = 0
	g.churnGen = make(map[int]int)
	g.collapseGen = make(map[int]int)
	g.cowReady = false
	g.done = false

	for pid := 0; pid < g.prof.Processes; pid++ {
		g.push(Op{Kind: OpCreateProcess, PID: pid})
		g.push(Op{Kind: OpMmap, PID: pid, VA: g.mainBase(pid), Len: g.prof.FootprintBytes, Size: g.pageSize})
		if g.prof.PrePopulate {
			g.push(Op{Kind: OpPopulate, PID: pid, VA: g.mainBase(pid)})
		}
	}
	if g.prof.CowEvery > 0 && g.prof.CowRegionBytes > 0 {
		g.cowBase = g.mainBase(0) + (1 << 41)
		g.push(Op{Kind: OpMmap, PID: 0, VA: g.cowBase, Len: g.prof.CowRegionBytes, Size: g.pageSize})
		g.push(Op{Kind: OpPopulate, PID: 0, VA: g.cowBase})
		g.cowReady = true
	}
	g.push(Op{Kind: OpCtxSwitch, PID: 0})
	// Multithreaded workloads: install process 0 on every thread's core.
	for t := 1; t < g.prof.Threads; t++ {
		g.push(Op{Kind: OpCtxSwitch, PID: 0, Core: t})
	}
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.prof.Name }

// Reset implements Generator.
func (g *Synthetic) Reset() { g.init() }

// SizeHint implements Sizer: the setup ops plus the steady-phase accesses
// plus an upper-bound estimate of every periodic burst. Bursts gated on
// the current PID (COW) or that stop early are overestimated, never
// underestimated, so Collect allocates once.
func (g *Synthetic) SizeHint() int {
	p := g.prof
	n := g.accesses + p.Processes*3 + p.Threads + 3
	if p.MmapChurnEvery > 0 {
		n += g.accesses / p.MmapChurnEvery * (2 + int(p.ChurnRegionBytes/4096))
	}
	if p.CowEvery > 0 && p.CowRegionBytes > 0 {
		n += g.accesses / p.CowEvery * (1 + int(p.CowRegionBytes/g.pageSize.Bytes()))
	}
	if p.ReclaimEvery > 0 {
		n += g.accesses / p.ReclaimEvery
	}
	if p.CtxSwitchEvery > 0 {
		n += g.accesses / p.CtxSwitchEvery
	}
	if p.CollapseEvery > 0 && g.pageSize == pagetable.Size4K {
		n += g.accesses / p.CollapseEvery * (1 + 512)
	}
	return n
}

// mainBase places each process's footprint in a distinct 2 TiB slice.
func (g *Synthetic) mainBase(pid int) uint64 { return uint64(pid+1) << 41 }

func (g *Synthetic) push(ops ...Op) { g.queue = append(g.queue, ops...) }

func (g *Synthetic) pop() Op {
	op := g.queue[g.head]
	g.head++
	if g.head == len(g.queue) {
		g.queue = g.queue[:0]
		g.head = 0
	}
	return op
}

// Next implements Generator.
func (g *Synthetic) Next() (Op, bool) {
	if g.head < len(g.queue) {
		return g.pop(), true
	}
	if g.done || g.emitted >= g.accesses {
		g.done = true
		return Op{}, false
	}
	g.emitted++
	i := g.emitted

	// Schedule churn events due at this step; their ops run before the
	// access to keep the stream deterministic.
	if g.prof.CtxSwitchEvery > 0 && i%g.prof.CtxSwitchEvery == 0 {
		g.curPID = (g.curPID + 1) % g.prof.Processes
		g.push(Op{Kind: OpCtxSwitch, PID: g.curPID})
	}
	if g.prof.MmapChurnEvery > 0 && i%g.prof.MmapChurnEvery == 0 {
		g.pushMmapChurn()
	}
	if g.prof.CowEvery > 0 && g.cowReady && i%g.prof.CowEvery == 0 && g.curPID == 0 {
		g.pushCowEvent()
	}
	if g.prof.ReclaimEvery > 0 && i%g.prof.ReclaimEvery == 0 {
		g.push(Op{Kind: OpReclaim, PID: g.curPID, N: g.prof.ReclaimPages})
	}
	if g.prof.CollapseEvery > 0 && i%g.prof.CollapseEvery == 0 {
		g.pushCollapseEvent()
	}

	g.push(g.patternAccess())
	return g.pop(), true
}

// patternAccess draws one steady-phase access in the current process's
// footprint.
func (g *Synthetic) patternAccess() Op {
	page := g.pat.next()
	va := g.mainBase(g.curPID) + page*g.pageSize.Bytes() + uint64(g.rng.Intn(int(g.pageSize.Bytes()/64)))*64
	core := 0
	if g.curPID == 0 && g.prof.Threads > 1 {
		core = g.emitted % g.prof.Threads
	}
	return Op{
		Kind:  OpAccess,
		PID:   g.curPID,
		Core:  core,
		VA:    va,
		Write: g.rng.Float64() < g.prof.WriteRatio,
	}
}

// pushMmapChurn retires the oldest transient region and maps + touches a
// fresh one. Slots rotate over a fixed set of bases, as real allocators
// reuse freed address ranges; churn regions always use 4K pages (transient
// allocations).
func (g *Synthetic) pushMmapChurn() {
	pid := g.curPID
	churnBase := g.mainBase(pid) + (1 << 40)
	slots := g.prof.ChurnRegions
	if slots < 1 {
		slots = 1
	}
	slot := g.churnGen[pid] % slots
	base := churnBase + uint64(slot)*(g.prof.ChurnRegionBytes+pagetable.Size2M.Bytes())
	g.churnGen[pid]++
	if g.churnGen[pid] > slots {
		// The slot is occupied by the allocation from `slots` events ago.
		g.push(Op{Kind: OpMunmap, PID: pid, VA: base})
	}
	g.push(Op{Kind: OpMmap, PID: pid, VA: base, Len: g.prof.ChurnRegionBytes, Size: pagetable.Size4K})
	for off := uint64(0); off < g.prof.ChurnRegionBytes; off += 4096 {
		g.push(Op{Kind: OpAccess, PID: pid, VA: base + off, Write: true})
	}
}

// pushCollapseEvent writes every 4K page of a rotating 2M-aligned chunk of
// the current process's main footprint (khugepaged collapses hot, fully
// populated ranges) and then collapses it. Chunks past the first rotation
// are already 2M-mapped; the OS refuses those collapses as unsuitable, which
// costs the stream nothing. Requires a 4K page-size policy and a footprint
// of at least one 2M chunk.
func (g *Synthetic) pushCollapseEvent() {
	if g.pageSize != pagetable.Size4K || g.prof.FootprintBytes < pagetable.Size2M.Bytes() {
		return
	}
	pid := g.curPID
	chunks := g.prof.FootprintBytes / pagetable.Size2M.Bytes()
	base := g.mainBase(pid) + uint64(g.collapseGen[pid]%int(chunks))*pagetable.Size2M.Bytes()
	g.collapseGen[pid]++
	for off := uint64(0); off < pagetable.Size2M.Bytes(); off += 4096 {
		g.push(Op{Kind: OpAccess, PID: pid, VA: base + off, Write: true})
	}
	g.push(Op{Kind: OpCollapse, PID: pid, VA: base})
}

// pushCowEvent marks the COW region and writes through every page.
func (g *Synthetic) pushCowEvent() {
	g.push(Op{Kind: OpMarkCOW, PID: 0, VA: g.cowBase})
	for off := uint64(0); off < g.prof.CowRegionBytes; off += g.pageSize.Bytes() {
		g.push(Op{Kind: OpAccess, PID: 0, VA: g.cowBase + off, Write: true})
	}
}

// FromOps replays a fixed op list (used by microbenchmarks and tests).
type FromOps struct {
	name string
	ops  []Op
	i    int
}

// NewFromOps wraps a fixed op slice as a Generator.
func NewFromOps(name string, ops []Op) *FromOps {
	return &FromOps{name: name, ops: ops}
}

// Name implements Generator.
func (f *FromOps) Name() string { return f.name }

// Next implements Generator.
func (f *FromOps) Next() (Op, bool) {
	if f.i >= len(f.ops) {
		return Op{}, false
	}
	op := f.ops[f.i]
	f.i++
	return op, true
}

// Reset implements Generator.
func (f *FromOps) Reset() { f.i = 0 }

// SizeHint implements Sizer (exact for a fixed list).
func (f *FromOps) SizeHint() int { return len(f.ops) }

// Pos reports how many ops have been consumed so far.
func (f *FromOps) Pos() int { return f.i }

// TakeRest returns the unconsumed tail of the op list and marks it
// consumed. Batch executors use it to process the ops in place — one slice
// iteration instead of a per-op interface call and 64-byte copy. The
// returned slice aliases the stream's backing array: read-only.
func (f *FromOps) TakeRest() []Op {
	rest := f.ops[f.i:]
	f.i = len(f.ops)
	return rest
}
