package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteFigure5CSV emits the Figure 5 sweep as CSV (one row per bar) for
// external plotting.
func WriteFigure5CSV(w io.Writer, f *Figure5Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"workload", "page_size", "technique",
		"walk_overhead", "vmm_overhead", "total_overhead",
		"tlb_misses", "walk_refs", "vm_exits", "avg_refs_per_miss", "mpki",
	}); err != nil {
		return err
	}
	for _, r := range f.Rows {
		rec := []string{
			r.Workload, r.PageSize.String(), r.Technique.String(),
			fmt.Sprintf("%.6f", r.WalkOv),
			fmt.Sprintf("%.6f", r.VMMOv),
			fmt.Sprintf("%.6f", r.TotalOv()),
			fmt.Sprintf("%d", r.Report.TLBMisses),
			fmt.Sprintf("%d", r.Report.WalkRefs),
			fmt.Sprintf("%d", r.Report.VMExitTotal()),
			fmt.Sprintf("%.4f", r.Report.RefsPerMiss()),
			fmt.Sprintf("%.4f", r.Report.MPKI()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTableVICSV emits the Table VI classification as CSV.
func WriteTableVICSV(w io.Writer, rows []TableVIRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"workload", "shadow", "l4", "l3", "l2", "l1", "nested", "avg_refs",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Workload}
		for c := 0; c < 6; c++ {
			rec = append(rec, fmt.Sprintf("%.6f", r.Fractions[c]))
		}
		rec = append(rec, fmt.Sprintf("%.4f", r.AvgRefs))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
