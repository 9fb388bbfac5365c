// Package telemetry is the simulator's epoch-based observability layer.
// The paper's central dynamic claim is temporal — agile paging *converges*,
// moving churning page-table subtrees to nested mode so update cost falls
// from thousands of VMM cycles toward direct writes (Table I) — but
// end-of-run aggregates cannot show convergence. This package samples the
// machine's counters every N accesses into a time series of epochs, each
// holding the interval delta of every counter plus end-of-epoch gauges
// (shadow-vs-nested coverage per page-table level).
//
// Design constraints, inherited from the PR 2 hot-path work:
//
//   - The per-access cost with telemetry attached is one branch and one
//     integer increment (Recorder.OnAccess). Counter assembly, interval
//     math, and slice growth happen only at epoch boundaries.
//   - The package never mutates simulator state; attaching a recorder must
//     leave every simulated counter bit-identical (pinned by the
//     experiments package's golden-equivalence and purity tests).
//
// The package depends only on vmm (for the VM-exit classification); the
// cpu package assembles Counters snapshots and drives the Recorder.
package telemetry

import "agilepaging/internal/vmm"

// Counters is one flat snapshot of every counter the simulator keeps,
// taken across all cores of a machine. It is the one counter schema: epoch
// telemetry diffs two snapshots, and the end-of-run report (cpu.Report)
// embeds the final one. Cumulative fields grow monotonically over a run;
// gauge fields (the Nested*/Protected* block) are point-in-time sizes of
// policy state. Keeping the struct flat and pointer-free means a snapshot
// is one struct copy — no allocation, no aliasing.
type Counters struct {
	Clock uint64 // simulated cycles

	// Access stream.
	Accesses uint64
	Writes   uint64

	// TLB hierarchy.
	TLBLookups uint64
	TLBL1Hits  uint64
	TLBL2Hits  uint64
	TLBMisses  uint64

	// Hardware walks, split by how many trailing guest levels ran nested
	// (0 = full shadow, 4 = switch at the root). A full-nested walk counts
	// under its depth here as well as in FullNestedWalks, so this split is
	// not the paper's Table VI classes (those come from trace.MissLog).
	// RefsByNestedLevels splits the reference volume the same way, so an
	// epoch's refs/walk can be decomposed by switch depth.
	// WalkRefs counts every charged reference, faulting walks included;
	// WalkerRefs counts the references of completed walks only.
	Walks               uint64
	WalkRefs            uint64
	WalkerRefs          uint64
	WalksByNestedLevels [5]uint64
	RefsByNestedLevels  [5]uint64
	FullNestedWalks     uint64
	FullNestedRefs      uint64

	// MMU caches.
	PWCLookups  uint64
	PWCHits     uint64
	NTLBLookups uint64
	NTLBHits    uint64

	// VMM interventions by cause (vmm.TrapKind order) and their cycle
	// totals. PTUpdateTrapCycles isolates the update-servicing subset
	// (pt-write + tlb-flush traps) that Table I's update cost divides by
	// guest page-table updates.
	VMExits            [vmm.NumTrapKinds]uint64
	TrapCycles         uint64
	PTUpdateTrapCycles uint64

	// Faults, context switches and guest page-table churn.
	GuestPageFaults uint64
	WriteProtFaults uint64
	CtxSwitches     uint64
	MapsInstalled   uint64
	Unmapped        uint64

	// Cycle decomposition (Table IV): E_ideal, and PW including the extra
	// references of the hardware A/D optimization. The VMM term is
	// TrapCycles.
	IdealCycles uint64
	WalkCycles  uint64

	// Mode-switch decisions of the agile policy, or of the SHSP baseline
	// that replaces it.
	SwitchesToNested uint64
	SwitchesToShadow uint64
	DirtyScans       uint64

	// Gauges: current shadow-vs-nested coverage of the guest page tables.
	// NestedNodesByLevel[l] counts guest table pages at level l (0 = root)
	// handled in nested mode; ProtectedByLevel[l] counts write-protected
	// (shadow-covered) table pages per level.
	NestedNodes        int
	ProtectedPages     int
	NestedNodesByLevel [4]int
	ProtectedByLevel   [4]int
}

// Diff returns the interval counters c − prev: cumulative fields are
// subtracted, gauge fields keep c's (end-of-interval) values.
func (c Counters) Diff(prev Counters) Counters {
	d := c
	d.Clock -= prev.Clock
	d.Accesses -= prev.Accesses
	d.Writes -= prev.Writes
	d.TLBLookups -= prev.TLBLookups
	d.TLBL1Hits -= prev.TLBL1Hits
	d.TLBL2Hits -= prev.TLBL2Hits
	d.TLBMisses -= prev.TLBMisses
	d.Walks -= prev.Walks
	d.WalkRefs -= prev.WalkRefs
	d.WalkerRefs -= prev.WalkerRefs
	for i := range d.WalksByNestedLevels {
		d.WalksByNestedLevels[i] -= prev.WalksByNestedLevels[i]
		d.RefsByNestedLevels[i] -= prev.RefsByNestedLevels[i]
	}
	d.FullNestedWalks -= prev.FullNestedWalks
	d.FullNestedRefs -= prev.FullNestedRefs
	d.PWCLookups -= prev.PWCLookups
	d.PWCHits -= prev.PWCHits
	d.NTLBLookups -= prev.NTLBLookups
	d.NTLBHits -= prev.NTLBHits
	for i := range d.VMExits {
		d.VMExits[i] -= prev.VMExits[i]
	}
	d.TrapCycles -= prev.TrapCycles
	d.PTUpdateTrapCycles -= prev.PTUpdateTrapCycles
	d.GuestPageFaults -= prev.GuestPageFaults
	d.WriteProtFaults -= prev.WriteProtFaults
	d.CtxSwitches -= prev.CtxSwitches
	d.MapsInstalled -= prev.MapsInstalled
	d.Unmapped -= prev.Unmapped
	d.IdealCycles -= prev.IdealCycles
	d.WalkCycles -= prev.WalkCycles
	d.SwitchesToNested -= prev.SwitchesToNested
	d.SwitchesToShadow -= prev.SwitchesToShadow
	d.DirtyScans -= prev.DirtyScans
	return d
}

// VMExitTotal sums the VM exits of the snapshot or interval.
func (c Counters) VMExitTotal() uint64 {
	var n uint64
	for _, v := range c.VMExits {
		n += v
	}
	return n
}

// MissRate is the TLB miss rate (misses per access).
func (c Counters) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.TLBMisses) / float64(c.Accesses)
}

// RefsPerMiss is the mean page-walk references per TLB miss (paper Table
// VI's final column).
func (c Counters) RefsPerMiss() float64 {
	if c.TLBMisses == 0 {
		return 0
	}
	return float64(c.WalkRefs) / float64(c.TLBMisses)
}

// PTUpdates is the number of guest page-table updates.
func (c Counters) PTUpdates() uint64 { return c.MapsInstalled + c.Unmapped }

// Epoch is one sampling interval of the time series.
type Epoch struct {
	Index int

	// Start/End are the cumulative access count and simulated clock at the
	// epoch's boundaries.
	StartAccesses uint64
	EndAccesses   uint64
	StartClock    uint64
	EndClock      uint64

	// Delta holds the interval counters (gauges are end-of-epoch values).
	Delta Counters
}

// UpdateCost is the epoch's VMM cycles per guest page-table update — the
// Table I update-cost cell, resolved in time. Under agile paging it starts
// in the VMM-mediated thousands and falls toward 0 as the write-threshold
// policy moves churning subtrees to nested mode.
func (e Epoch) UpdateCost() float64 {
	u := e.Delta.PTUpdates()
	if u == 0 {
		return 0
	}
	return float64(e.Delta.PTUpdateTrapCycles) / float64(u)
}

// Recorder accumulates the epoch series. The hot-path contract: OnAccess
// is the only method called per access; it allocates nothing and does no
// counter work. When it reports an epoch boundary the caller assembles a
// Counters snapshot and passes it to Sample, which closes the epoch.
type Recorder struct {
	epochLen uint64
	since    uint64
	prev     Counters
	series   Series
}

// NewRecorder creates a recorder sampling every epochLen accesses
// (non-positive selects 10 000).
func NewRecorder(epochLen int) *Recorder {
	if epochLen <= 0 {
		epochLen = 10_000
	}
	return &Recorder{epochLen: uint64(epochLen), series: Series{EpochLen: epochLen}}
}

// EpochLen returns the sampling interval in accesses.
func (r *Recorder) EpochLen() int { return int(r.epochLen) }

// OnAccess counts one access and reports whether the epoch is complete and
// the caller must Sample. It is the per-access hot path: one increment, one
// compare, no allocation.
func (r *Recorder) OnAccess() bool {
	r.since++
	return r.since >= r.epochLen
}

// Rebase sets the baseline snapshot future epochs diff against, discarding
// the partial epoch in progress. The machine calls it when the recorder is
// attached and again when measurement counters are reset after warmup, so
// epochs never mix pre- and post-reset counter spaces.
func (r *Recorder) Rebase(c Counters) {
	r.prev = c
	r.since = 0
}

// Sample closes the current epoch at snapshot c: it appends the interval
// delta against the previous boundary and starts the next epoch. Called at
// epoch boundaries only, so its slice append never touches the per-access
// path.
func (r *Recorder) Sample(c Counters) {
	r.series.Epochs = append(r.series.Epochs, Epoch{
		Index:         len(r.series.Epochs),
		StartAccesses: r.prev.Accesses,
		EndAccesses:   c.Accesses,
		StartClock:    r.prev.Clock,
		EndClock:      c.Clock,
		Delta:         c.Diff(r.prev),
	})
	r.prev = c
	r.since = 0
}

// Flush closes a final partial epoch at snapshot c, if any accesses were
// recorded since the last boundary. Runs call it once at the end so the
// tail of the run is not silently dropped.
func (r *Recorder) Flush(c Counters) {
	if r.since == 0 {
		return
	}
	r.Sample(c)
}

// Series returns the accumulated time series.
func (r *Recorder) Series() *Series { return &r.series }
