// Package vmm implements the hypervisor of the reproduction: per-VM host
// page tables, shadow page table construction and coherence, guest page
// table write interception, VM-exit (VMtrap) accounting, and the two
// optional hardware optimizations of paper §IV. The agile paging policies
// live in package core; this package supplies the mechanisms they drive.
package vmm

import "fmt"

// TrapKind classifies VMM interventions. The paper defines VMtrap latency
// as "the cycles required for a VMexit trap and its return plus the work
// done by the VMM in response to the VMexit" (§II-B).
type TrapKind int

// Trap kinds, mirroring the events the paper's step-1 trace records.
const (
	// TrapShadowFill is the hidden page fault taken when the hardware walk
	// finds a not-present shadow entry and the VMM fills it from the guest
	// and host tables.
	TrapShadowFill TrapKind = iota
	// TrapPTWrite is a guest write to a write-protected guest page table
	// page, emulated by the VMM while it re-syncs the shadow table.
	TrapPTWrite
	// TrapADUpdate is the protection fault the VMM takes to propagate
	// accessed/dirty bits for shadow-covered pages (paper §III-B).
	TrapADUpdate
	// TrapContextSwitch is the guest CR3 write intercept under shadow or
	// agile paging (paper §III-B "Context-Switches").
	TrapContextSwitch
	// TrapTLBFlush is a guest-initiated INVLPG/flush intercepted so the VMM
	// can keep the shadow table coherent.
	TrapTLBFlush
	// TrapHostFault is a VM exit caused by a host page table violation
	// (demand backing or host copy-on-write).
	TrapHostFault

	// NumTrapKinds is the number of trap kinds.
	NumTrapKinds
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapShadowFill:
		return "shadow-fill"
	case TrapPTWrite:
		return "pt-write"
	case TrapADUpdate:
		return "ad-update"
	case TrapContextSwitch:
		return "context-switch"
	case TrapTLBFlush:
		return "tlb-flush"
	case TrapHostFault:
		return "host-fault"
	}
	return fmt.Sprintf("TrapKind(%d)", int(k))
}

// CostModel assigns a cycle cost to each trap kind. The paper measures
// these with LMbench and microbenchmarks and reports "1000s of cycles"
// (§II-B, §VI); the defaults sit in that band.
type CostModel struct {
	Cycles [NumTrapKinds]uint64
	// HWADWalkRefs is the number of extra page-walk memory references
	// charged when the hardware A/D optimization (paper §IV) updates all
	// three tables instead of trapping: "up to 24 memory accesses".
	HWADWalkRefs uint64
}

// DefaultCostModel returns trap costs in the band the paper reports.
func DefaultCostModel() CostModel {
	var c CostModel
	c.Cycles[TrapShadowFill] = 3000
	c.Cycles[TrapPTWrite] = 2700
	c.Cycles[TrapADUpdate] = 2300
	c.Cycles[TrapContextSwitch] = 2000
	c.Cycles[TrapTLBFlush] = 1500
	c.Cycles[TrapHostFault] = 4000
	c.HWADWalkRefs = 24
	return c
}

// Stats accumulates VMM activity.
type Stats struct {
	Traps      [NumTrapKinds]uint64
	TrapCycles uint64

	// HWADUpdates counts A/D propagations performed by the hardware
	// optimization instead of a trap; HWADRefs is the extra walk
	// references they cost.
	HWADUpdates uint64
	HWADRefs    uint64

	// CtxCacheHits counts context switches absorbed by the gptr⇒sptr
	// hardware cache (paper §IV) without a VM exit.
	CtxCacheHits uint64

	// ShadowEntriesZapped sizes the shadow-table churn: shadow entries
	// zapped, with their subtrees, to keep the shadow tables coherent.
	ShadowEntriesZapped uint64

	// PagesDeduped counts content-based sharing merges (paper §V).
	PagesDeduped uint64
}

// TotalTraps sums all trap counts.
func (s Stats) TotalTraps() uint64 {
	var n uint64
	for _, v := range s.Traps {
		n += v
	}
	return n
}
