package cpu

import (
	"fmt"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
)

// Report is the full measurement record of one run: the run's identity,
// the final counter snapshot (the same telemetry.Counters schema epochs
// diff, carrying everything the paper's performance model, Table IV,
// consumes), and the per-miss walk-reference distribution. The derived
// cycle decomposition that Figure 5 plots is computed from the counters.
type Report struct {
	Workload  string
	Technique walker.Mode
	PageSize  pagetable.Size

	telemetry.Counters

	// Per-miss walk-reference distribution (completed walks only).
	RefsP50 int
	RefsP95 int
	RefsMax int
}

// ExecCycles is total modeled execution time.
func (r Report) ExecCycles() uint64 { return r.IdealCycles + r.WalkCycles + r.TrapCycles }

// WalkOverhead is page-walk cycles relative to ideal execution (the bottom
// bar segment in Figure 5).
func (r Report) WalkOverhead() float64 {
	if r.IdealCycles == 0 {
		return 0
	}
	return float64(r.WalkCycles) / float64(r.IdealCycles)
}

// VMMOverhead is VMM-intervention cycles relative to ideal execution (the
// dashed top bar segment in Figure 5).
func (r Report) VMMOverhead() float64 {
	if r.IdealCycles == 0 {
		return 0
	}
	return float64(r.TrapCycles) / float64(r.IdealCycles)
}

// TotalOverhead is the combined execution-time overhead.
func (r Report) TotalOverhead() float64 { return r.WalkOverhead() + r.VMMOverhead() }

// MPKI returns TLB misses per thousand accesses (the paper selects
// workloads above 5 MPKI).
func (r Report) MPKI() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return 1000 * float64(r.TLBMisses) / float64(r.Accesses)
}

// String summarizes the report in one line.
func (r Report) String() string {
	return fmt.Sprintf("%s/%s/%s: walk %.1f%% vmm %.1f%% (misses %d, traps %d)",
		r.Workload, r.Technique, r.PageSize,
		100*r.WalkOverhead(), 100*r.VMMOverhead(),
		r.TLBMisses, r.VMExitTotal())
}

// Report assembles the measurement record for everything run so far.
func (m *Machine) Report(workloadName string) Report {
	return Report{
		Workload:  workloadName,
		Technique: m.cfg.Technique,
		PageSize:  m.cfg.PageSize,
		Counters:  m.Counters(),
		RefsP50:   m.refsHist.Percentile(0.5),
		RefsP95:   m.refsHist.Percentile(0.95),
		RefsMax:   m.refsHist.Max(),
	}
}
