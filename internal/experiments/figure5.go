package experiments

import (
	"context"
	"fmt"
	"math"

	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/perfmodel"
	"agilepaging/internal/sweep"
	"agilepaging/internal/trace"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// Figure5Row is one bar of paper Figure 5: execution-time overhead split
// into page-walk and VMM-intervention components.
type Figure5Row struct {
	Workload  string
	PageSize  pagetable.Size
	Technique walker.Mode
	WalkOv    float64
	VMMOv     float64
	Report    cpu.Report
}

// TotalOv is the bar height.
func (r Figure5Row) TotalOv() float64 { return r.WalkOv + r.VMMOv }

// Figure5Result holds the full sweep. Under sweep.CollectAll a failing
// cell does not empty the result: Rows holds every completed cell and
// Failed attributes the rest, so the figure renders partially alongside
// the returned error.
type Figure5Result struct {
	Rows     []Figure5Row
	Failed   []FailedCell
	Accesses int
	Seed     int64
}

// Get returns the row for (workload, page size, technique).
func (f *Figure5Result) Get(w string, ps pagetable.Size, tech walker.Mode) (Figure5Row, bool) {
	for _, r := range f.Rows {
		if r.Workload == w && r.PageSize == ps && r.Technique == tech {
			return r, true
		}
	}
	return Figure5Row{}, false
}

// Figure5Sweep runs the full evaluation sweep of paper Figure 5: every
// workload of Table V under the eight configurations {4K,2M} × {base
// native, nested, shadow, agile}. workloads == nil runs all eight. Results
// are in declaration order (workload-major, then page size, then technique),
// identical to a serial run for any worker count. On error the result is
// still non-nil and carries whatever cells completed (plus their failure
// attributions) — under cfg.ErrorPolicy == sweep.CollectAll that is every
// healthy cell.
func Figure5Sweep(ctx context.Context, cfg sweep.Config, workloads []string, accesses int, seed int64) (*Figure5Result, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	var jobs []sweep.Job[Options]
	for _, name := range workloads {
		for _, ps := range PageSizes() {
			for _, tech := range Techniques() {
				o := DefaultOptions(tech, ps)
				o.Accesses = accesses
				o.Seed = seed
				jobs = append(jobs, sweep.Job[Options]{
					Key:      fmt.Sprintf("%s/%s/%s", name, ps, tech),
					Workload: name,
					Options:  o,
				})
			}
		}
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[Options]) (Figure5Row, error) {
		rep, err := RunProfile(j.Workload, j.Options)
		if err != nil {
			return Figure5Row{}, err
		}
		return Figure5Row{
			Workload:  j.Workload,
			PageSize:  j.Options.PageSize,
			Technique: j.Options.Technique,
			WalkOv:    rep.WalkOverhead(),
			VMMOv:     rep.VMMOverhead(),
			Report:    rep,
		}, nil
	})
	rows, failed := partialOutcome(jobs, out)
	return &Figure5Result{Rows: rows, Failed: failed, Accesses: accesses, Seed: seed}, out.Err
}

// HeadlineRow summarizes the paper's §VII.A claims for one workload and
// page size.
type HeadlineRow struct {
	Workload string
	PageSize pagetable.Size
	// AgileVsBest is the execution-time improvement of agile paging over
	// the better of nested and shadow (positive = agile faster).
	AgileVsBest float64
	// AgileVsNative is the slowdown of agile relative to base native
	// (positive = agile slower; the paper reports <4% for all workloads).
	AgileVsNative float64
	BestOther     walker.Mode
}

// HeadlineResult aggregates the per-workload rows.
type HeadlineResult struct {
	Rows []HeadlineRow
	// Geometric means over workloads, per page size.
	GeoAgileVsBest4K   float64
	GeoAgileVsNative4K float64
	GeoAgileVsBest2M   float64
	GeoAgileVsNative2M float64
}

// Headline derives the §VII.A headline numbers from a Figure 5 sweep.
func Headline(f *Figure5Result) HeadlineResult {
	var out HeadlineResult
	type acc struct {
		best, native []float64
	}
	byPS := map[pagetable.Size]*acc{pagetable.Size4K: {}, pagetable.Size2M: {}}
	seen := map[[2]string]bool{}
	for _, r := range f.Rows {
		key := [2]string{r.Workload, r.PageSize.String()}
		if seen[key] {
			continue
		}
		seen[key] = true
		native, _ := f.Get(r.Workload, r.PageSize, walker.ModeNative)
		nested, _ := f.Get(r.Workload, r.PageSize, walker.ModeNested)
		shadow, _ := f.Get(r.Workload, r.PageSize, walker.ModeShadow)
		agile, ok := f.Get(r.Workload, r.PageSize, walker.ModeAgile)
		if !ok {
			continue
		}
		best, bestTech := nested.TotalOv(), walker.ModeNested
		if shadow.TotalOv() < best {
			best, bestTech = shadow.TotalOv(), walker.ModeShadow
		}
		row := HeadlineRow{
			Workload:      r.Workload,
			PageSize:      r.PageSize,
			AgileVsBest:   (1+best)/(1+agile.TotalOv()) - 1,
			AgileVsNative: (1+agile.TotalOv())/(1+native.TotalOv()) - 1,
			BestOther:     bestTech,
		}
		out.Rows = append(out.Rows, row)
		a := byPS[r.PageSize]
		a.best = append(a.best, 1+row.AgileVsBest)
		a.native = append(a.native, 1+row.AgileVsNative)
	}
	out.GeoAgileVsBest4K = geomean(byPS[pagetable.Size4K].best) - 1
	out.GeoAgileVsNative4K = geomean(byPS[pagetable.Size4K].native) - 1
	out.GeoAgileVsBest2M = geomean(byPS[pagetable.Size2M].best) - 1
	out.GeoAgileVsNative2M = geomean(byPS[pagetable.Size2M].native) - 1
	return out
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ModelValidation compares directly-simulated agile paging with the
// paper's two-step linear-model projection (Table IV) for one workload.
type ModelValidation struct {
	Workload        string
	DirectWalkOv    float64
	DirectVMMOv     float64
	ProjectedWalkOv float64
	ProjectedVMMOv  float64
}

// validateRun is one ValidateModelSweep measurement plus the miss log it
// collected (agile only).
type validateRun struct {
	rep  cpu.Report
	miss trace.MissLog
}

// ValidateModelSweep runs the paper's methodology end to end for one
// workload at 4K: measure native/nested/shadow, take the VM exits by cause
// from the shadow and agile reports (the trace-cmd step) and the agile
// run's miss log (the BadgerTrap step), project agile performance with the
// Table IV model, and report it against direct simulation. The four
// constituent measurements are independent and run as one sweep.
func ValidateModelSweep(ctx context.Context, cfg sweep.Config, name string, accesses int, seed int64) (ModelValidation, error) {
	mk := func(tech walker.Mode) Options {
		o := DefaultOptions(tech, pagetable.Size4K)
		o.Accesses = accesses
		o.Seed = seed
		return o
	}
	// Native, nested and shadow are plain cells served by the report
	// cache; the agile job attaches a miss log at run time, which makes it
	// instrumented — it always simulates for real.
	jobs := []sweep.Job[Options]{
		{Key: name + "/native", Workload: name, Options: mk(walker.ModeNative)},
		{Key: name + "/nested", Workload: name, Options: mk(walker.ModeNested)},
		{Key: name + "/shadow", Workload: name, Options: mk(walker.ModeShadow)},
		{Key: name + "/agile", Workload: name, Options: mk(walker.ModeAgile)},
	}
	runs, err := sweep.Run(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[Options]) (validateRun, error) {
		var out validateRun
		o := j.Options
		if o.Technique == walker.ModeAgile {
			o.OnWalk = out.miss.Record
		}
		rep, err := RunProfile(j.Workload, o)
		if err != nil {
			return validateRun{}, err
		}
		out.rep = rep
		return out, nil
	})
	if err != nil {
		return ModelValidation{}, err
	}
	nativeRep, nestedRep, shadowRep, agileRep := runs[0].rep, runs[1].rep, runs[2].rep, runs[3].rep
	agileMiss := runs[3].miss

	ideal := nativeRep.IdealCycles
	toMeasured := func(r cpu.Report) perfmodel.Measured {
		return perfmodel.Measured{
			ExecCycles:       r.ExecCycles(),
			TLBMissCycles:    r.WalkCycles,
			TLBMisses:        r.TLBMisses,
			HypervisorCycles: r.TrapCycles,
		}
	}
	avoided := trace.AvoidedCycles(shadowRep.VMExits, agileRep.VMExits, vmm.DefaultCostModel())
	proj, err := perfmodel.ProjectAgile(
		toMeasured(nestedRep), toMeasured(shadowRep), ideal,
		agileMiss.Summary().NestedFractions(),
		nativeRep.TLBMisses, avoided,
	)
	if err != nil {
		return ModelValidation{}, fmt.Errorf("experiments: %s projection: %w", name, err)
	}
	return ModelValidation{
		Workload:        name,
		DirectWalkOv:    agileRep.WalkOverhead(),
		DirectVMMOv:     agileRep.VMMOverhead(),
		ProjectedWalkOv: proj.PageWalk,
		ProjectedVMMOv:  proj.VMM,
	}, nil
}
