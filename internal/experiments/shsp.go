package experiments

import (
	"context"
	"fmt"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// SHSPRow compares one workload under the SHSP prior-work baseline against
// agile paging and the constituent techniques (paper §VII.C).
type SHSPRow struct {
	Workload string
	// Total execution-time overheads.
	Nested, Shadow, SHSP, Agile float64
	// SHSPSwitches counts SHSP's whole-process mode changes.
	SHSPSwitches uint64
}

// Best returns the better constituent's overhead.
func (r SHSPRow) Best() float64 {
	if r.Nested < r.Shadow {
		return r.Nested
	}
	return r.Shadow
}

// shspSpec is one (workload, configuration) cell of the comparison.
type shspSpec struct {
	tech walker.Mode
	shsp bool
}

// shspResult is one cell's measurement.
type shspResult struct {
	overhead float64
	switches uint64
}

// shspConfigs are the four configurations measured per workload, in the
// order the SHSPRow fields are filled: nested, shadow, SHSP, agile.
var shspConfigs = [...]shspSpec{
	{walker.ModeNested, false},
	{walker.ModeShadow, false},
	{walker.ModeAgile, true},
	{walker.ModeAgile, false},
}

// SHSPComparisonSweep reproduces the paper's §VII.C discussion: SHSP,
// switching an entire guest process temporally between the techniques,
// approaches the best of the two, while agile paging — temporal *and*
// spatial — exceeds it. Runs at 4K pages where the techniques differ most;
// every (workload, configuration) cell is an independent sweep job.
func SHSPComparisonSweep(ctx context.Context, cfg sweep.Config, workloads []string, accesses int, seed int64) ([]SHSPRow, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	var jobs []sweep.Job[Options]
	for _, name := range workloads {
		for _, c := range shspConfigs {
			label := c.tech.String()
			if c.shsp {
				label = "shsp"
			}
			o := DefaultOptions(c.tech, pagetable.Size4K)
			o.Accesses = accesses
			o.Seed = seed
			o.UseSHSP = c.shsp
			// SHSP converges coarsely (whole-process sampling + rebuild);
			// give every configuration a full-length warmup so the steady
			// states are compared, as the paper's to-completion runs do.
			o.Warmup = accesses
			jobs = append(jobs, sweep.Job[Options]{
				Key:      fmt.Sprintf("%s/%s", name, label),
				Workload: name,
				Options:  o,
			})
		}
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[Options]) (shspResult, error) {
		rep, err := RunProfile(j.Workload, j.Options)
		if err != nil {
			return shspResult{}, err
		}
		return shspResult{
			overhead: rep.TotalOverhead(),
			switches: rep.SwitchesToShadow + rep.SwitchesToNested,
		}, nil
	})
	// A comparison row needs all four of its configuration cells; workloads
	// with a failed or never-ran cell are dropped from the partial table.
	rows := make([]SHSPRow, 0, len(workloads))
	for i, name := range workloads {
		base := i * len(shspConfigs)
		complete := true
		for k := 0; k < len(shspConfigs); k++ {
			complete = complete && out.Completed[base+k]
		}
		if !complete {
			continue
		}
		c := out.Results[base:]
		rows = append(rows, SHSPRow{
			Workload:     name,
			Nested:       c[0].overhead,
			Shadow:       c[1].overhead,
			SHSP:         c[2].overhead,
			Agile:        c[3].overhead,
			SHSPSwitches: c[2].switches,
		})
	}
	return rows, out.Err
}
