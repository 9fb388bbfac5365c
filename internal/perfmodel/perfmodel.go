// Package perfmodel implements the paper's linear performance model
// (Table IV). The paper does not measure agile paging on real hardware —
// no such hardware exists; instead it projects agile performance from
// measured counters of the constituent techniques plus two trace-derived
// fraction sets:
//
//	F_Ni — fraction of TLB misses served in nested mode with the switch at
//	       level i (from the BadgerTrap step)
//	F_Vi — fraction of VMM interventions of type i that agile eliminates
//	       (from the KVM trace step)
//
// The simulator measures agile paging directly, but reproducing the model
// lets us validate the paper's methodology against direct simulation.
package perfmodel

import "errors"

// ErrZeroIdeal reports an overhead computation against zero ideal cycles —
// a malformed Measured that would otherwise masquerade as 0% overhead.
var ErrZeroIdeal = errors.New("perfmodel: zero ideal cycles")

// Measured holds the performance-counter values of one run, as the paper
// collects with Linux perf (§VI): total execution cycles E, cycles spent on
// TLB misses T, number of TLB misses M, and cycles spent in the hypervisor
// H (zero for base native).
type Measured struct {
	ExecCycles       uint64 // E
	TLBMissCycles    uint64 // T
	TLBMisses        uint64 // M
	HypervisorCycles uint64 // H
}

// Overheads is the two-component decomposition Figure 5 plots.
type Overheads struct {
	PageWalk float64 // PW = [E − E_ideal − H] / E_ideal
	VMM      float64 // VMM = H / E_ideal
}

// Total is the combined overhead.
func (o Overheads) Total() float64 { return o.PageWalk + o.VMM }

// Compute applies Table IV rows 2-3 to a measured run. A zero ideal would
// divide away into zero Overheads, hiding the malformed input, so it
// returns ErrZeroIdeal instead.
func Compute(m Measured, ideal uint64) (Overheads, error) {
	if ideal == 0 {
		return Overheads{}, ErrZeroIdeal
	}
	var pw float64
	if m.ExecCycles > ideal+m.HypervisorCycles {
		pw = float64(m.ExecCycles-ideal-m.HypervisorCycles) / float64(ideal)
	}
	return Overheads{
		PageWalk: pw,
		VMM:      float64(m.HypervisorCycles) / float64(ideal),
	}, nil
}

// CyclesPerMiss is Table IV row 4: C = T / M.
func CyclesPerMiss(m Measured) float64 {
	if m.TLBMisses == 0 {
		return 0
	}
	return float64(m.TLBMissCycles) / float64(m.TLBMisses)
}

// NestedFractions holds F_Ni: index 1..4 is the fraction of TLB misses
// whose translation switches to nested mode at level i (1 = top); index 0
// is unused. The full-shadow fraction is 1 − ΣF_Ni.
type NestedFractions [5]float64

// Sum returns ΣF_Ni (the nested-touched fraction of misses).
func (f NestedFractions) Sum() float64 {
	s := 0.0
	for i := 1; i <= 4; i++ {
		s += f[i]
	}
	return s
}

// ProjectWalkOverhead is Table IV row 5: the projected page-walk overhead
// of agile paging,
//
//	PW_A = [C_N·ΣF_N{2..4} + C_S·(1−ΣF_Ni) + (C_N+C_S)·0.5·F_N1] · M_B / E_ideal
//
// where C_N and C_S are the per-miss cycle costs of nested and shadow
// paging and M_B the base-native miss count. As in the paper, a switch at
// the top level (F_N1) is conservatively charged half the nested cost
// beyond shadow, and deeper switches pay the full nested cost.
func ProjectWalkOverhead(cN, cS float64, f NestedFractions, baseMisses, ideal uint64) float64 {
	if ideal == 0 {
		return 0
	}
	deep := f[2] + f[3] + f[4]
	cycles := (cN*deep + cS*(1-f.Sum()) + (cN+cS)*0.5*f[1]) * float64(baseMisses)
	return cycles / float64(ideal)
}

// ProjectVMMOverhead is Table IV row 6: the projected VMM overhead of agile
// paging, VMM_A = O_S − Σ(F_Vi · CE_i)/E_ideal: the shadow VMM overhead
// minus the interventions agile eliminates. avoidedCycles is Σ F_Vi·CE_i,
// the cycle total of eliminated traps.
func ProjectVMMOverhead(shadowVMM float64, avoidedCycles, ideal uint64) float64 {
	if ideal == 0 {
		return 0
	}
	o := shadowVMM - float64(avoidedCycles)/float64(ideal)
	if o < 0 {
		return 0
	}
	return o
}

// ProjectAgile combines rows 5 and 6 into the full agile projection.
func ProjectAgile(nested, shadow Measured, ideal uint64, f NestedFractions, baseMisses, avoidedTrapCycles uint64) (Overheads, error) {
	cN := CyclesPerMiss(nested)
	cS := CyclesPerMiss(shadow)
	sOv, err := Compute(shadow, ideal)
	if err != nil {
		return Overheads{}, err
	}
	return Overheads{
		PageWalk: ProjectWalkOverhead(cN, cS, f, baseMisses, ideal),
		VMM:      ProjectVMMOverhead(sOv.VMM, avoidedTrapCycles, ideal),
	}, nil
}
