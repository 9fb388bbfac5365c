package experiments

import (
	"context"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// TableVIRow is one row of paper Table VI: the fraction of TLB misses
// served at each agile switch level while using 4K pages, assuming no page
// walk caches, plus the resulting average memory accesses per miss.
type TableVIRow struct {
	Workload string
	// Fractions[0] = full shadow, [1..4] = switch at L4..L1 (1..4 trailing
	// nested levels), [5] = fully nested.
	Fractions [telemetry.NumWalkClasses]float64
	AvgRefs   float64
}

// TableVISweep reproduces paper Table VI by running every workload under
// agile paging at 4K with the page walk caches and nested TLB disabled, and
// classifying every TLB miss (the BadgerTrap step). It runs one sweep job
// per workload, each with its own private miss log. On error the returned
// rows hold whatever workloads completed.
func TableVISweep(ctx context.Context, cfg sweep.Config, workloads []string, accesses int, seed int64) ([]TableVIRow, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	jobs := make([]sweep.Job[Options], 0, len(workloads))
	for _, name := range workloads {
		o := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
		o.Accesses = accesses
		o.Seed = seed
		o.DisablePWC = true
		o.DisableNTLB = true
		jobs = append(jobs, sweep.Job[Options]{Key: "table6/" + name, Workload: name, Options: o})
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[Options]) (TableVIRow, error) {
		// The miss log is created inside the job so concurrent jobs never
		// share an observer.
		var miss trace.MissLog
		o := j.Options
		o.OnWalk = miss.Record
		if _, err := RunProfile(j.Workload, o); err != nil {
			return TableVIRow{}, err
		}
		s := miss.Summary()
		row := TableVIRow{Workload: j.Workload, AvgRefs: s.AvgRefs()}
		for c := range row.Fractions {
			row.Fractions[c] = s.Fraction(c)
		}
		return row, nil
	})
	rows, _ := partialOutcome(jobs, out)
	return rows, out.Err
}
