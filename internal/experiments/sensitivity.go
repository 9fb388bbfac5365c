package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// SensitivityRow reports one point of the cost-model sensitivity sweep.
type SensitivityRow struct {
	// TrapScale multiplies every VM-exit cost; RefScale multiplies the
	// page-walk memory-reference costs.
	TrapScale float64
	RefScale  float64
	// Total overheads for the probe workload under each technique.
	Nested, Shadow, Agile float64
	// AgileWins reports whether agile still beats the best constituent.
	AgileWins bool
}

// sensitivitySpec is one (cost scaling, technique) point of the sweep,
// carrying the perturbed machine configuration it runs.
type sensitivitySpec struct {
	trapScale, refScale float64
	opts                Options
	cfg                 cpu.Config
}

// sensitivityTechs are the techniques each calibration cell measures.
var sensitivityTechs = [...]walker.Mode{walker.ModeNested, walker.ModeShadow, walker.ModeAgile}

// SensitivitySweep sweeps the two calibrated cost parameters — VM-exit
// cycles and walk-reference cycles — across an order of magnitude and
// checks whether the paper's conclusion (agile ≤ best of nested and shadow)
// is an artifact of the calibration or robust to it. The probe workload is
// dedup, where both constituents are expensive in different ways. All 27
// (trap scale × ref scale × technique) simulations run as one sweep and are
// folded back into the 9 calibration rows in declaration order.
func SensitivitySweep(ctx context.Context, cfg sweep.Config, accesses int, seed int64) ([]SensitivityRow, error) {
	prof, _ := workload.ProfileByName("dedup")
	var jobs []sweep.Job[sensitivitySpec]
	for _, trapScale := range []float64{0.3, 1, 3} {
		for _, refScale := range []float64{0.5, 1, 2} {
			for _, tech := range sensitivityTechs {
				o := DefaultOptions(tech, pagetable.Size4K)
				o.Accesses = accesses
				o.Seed = seed
				mcfg := machineConfig(o)
				costs := vmm.DefaultCostModel()
				for k := range costs.Cycles {
					costs.Cycles[k] = uint64(float64(costs.Cycles[k]) * trapScale)
				}
				mcfg.TrapCosts = costs
				mcfg.MemRefCycles = uint64(float64(mcfg.MemRefCycles) * refScale)
				mcfg.HostRefCycles = uint64(float64(mcfg.HostRefCycles) * refScale)
				if mcfg.HostRefCycles < 1 {
					mcfg.HostRefCycles = 1
				}
				jobs = append(jobs, sweep.Job[sensitivitySpec]{
					Key:      fmt.Sprintf("dedup/trap×%.1f/ref×%.1f/%s", trapScale, refScale, tech),
					Workload: prof.Name,
					Options:  sensitivitySpec{trapScale: trapScale, refScale: refScale, opts: o, cfg: mcfg},
				})
			}
		}
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[sensitivitySpec]) (float64, error) {
		rep, err := runScaled(prof, j.Options.cfg, j.Options.opts)
		if err != nil {
			return 0, err
		}
		return rep.TotalOverhead(), nil
	})
	// A calibration row needs all three of its technique cells; rows with a
	// failed or never-ran cell are dropped rather than reported half-zero.
	var rows []SensitivityRow
	for i := 0; i < len(jobs); i += len(sensitivityTechs) {
		if !out.Completed[i] || !out.Completed[i+1] || !out.Completed[i+2] {
			continue
		}
		row := SensitivityRow{
			TrapScale: jobs[i].Options.trapScale,
			RefScale:  jobs[i].Options.refScale,
			Nested:    out.Results[i],
			Shadow:    out.Results[i+1],
			Agile:     out.Results[i+2],
		}
		best := row.Nested
		if row.Shadow < best {
			best = row.Shadow
		}
		row.AgileWins = row.Agile <= best*1.02+0.005 // ties allowed
		rows = append(rows, row)
	}
	return rows, out.Err
}

// FormatSensitivity renders the sweep.
func FormatSensitivity(rows []SensitivityRow) string {
	var b strings.Builder
	b.WriteString("Sensitivity: does agile still win if the cost calibration is wrong?\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trap cost x\twalk ref cost x\tnested%\tshadow%\tagile%\tagile wins")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%v\n",
			r.TrapScale, r.RefScale, 100*r.Nested, 100*r.Shadow, 100*r.Agile, r.AgileWins)
	}
	w.Flush()
	return b.String()
}
