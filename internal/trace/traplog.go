package trace

import "agilepaging/internal/vmm"

// TrapLog counts VM exits by kind — the step-1 artifact from which the
// paper derives the fraction of VMM interventions agile paging eliminates
// (F_Vi in Table IV).
type TrapLog struct {
	Counts [vmm.NumTrapKinds]uint64
}

// Observer returns a vmm trap-observer that updates the log.
func (l *TrapLog) Observer() func(vmm.TrapKind) {
	return func(k vmm.TrapKind) { l.Counts[k]++ }
}

// Total sums all trap counts.
func (l *TrapLog) Total() uint64 {
	var n uint64
	for _, c := range l.Counts {
		n += c
	}
	return n
}

// AvoidedCycles computes Σ F_Vi·CE_i given the shadow-run log and the
// agile-run log for the same workload: the cycles of the interventions
// agile paging eliminated, valued with the cost model.
func AvoidedCycles(shadow, agile *TrapLog, costs vmm.CostModel) uint64 {
	var cycles uint64
	for k := vmm.TrapKind(0); k < vmm.NumTrapKinds; k++ {
		if shadow.Counts[k] > agile.Counts[k] {
			cycles += (shadow.Counts[k] - agile.Counts[k]) * costs.Cycles[k]
		}
	}
	return cycles
}
