package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"agilepaging/internal/vmm"
)

// Series is the full epoch time series of one run.
type Series struct {
	// EpochLen is the sampling interval in accesses.
	EpochLen int
	// TrapKinds names the VMExits array indices, so exported files are
	// self-describing. Filled on export.
	TrapKinds []string `json:",omitempty"`
	Epochs    []Epoch
}

// trapKindNames lists the vmm.TrapKind names in index order.
func trapKindNames() []string {
	names := make([]string, vmm.NumTrapKinds)
	for k := vmm.TrapKind(0); k < vmm.NumTrapKinds; k++ {
		names[k] = k.String()
	}
	return names
}

// WriteJSON exports the series as indented JSON.
func (s *Series) WriteJSON(w io.Writer) error {
	out := *s
	out.TrapKinds = trapKindNames()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteFile exports the series to path: CSV when the path ends in .csv,
// the self-describing JSON form otherwise.
func (s *Series) WriteFile(path string) error {
	write := s.WriteJSON
	if strings.HasSuffix(path, ".csv") {
		write = s.WriteCSV
	}
	return writeFile(path, write)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvHeader is the column set of WriteCSV: the raw interval counts plus
// the derived per-epoch rates the adaptation analysis reads.
var csvHeader = []string{
	"epoch", "end_accesses", "end_clock",
	"accesses", "writes", "tlb_misses", "miss_rate",
	"walk_refs", "refs_per_walk",
	"vm_exits", "trap_cycles",
	"pt_updates", "pt_update_trap_cycles", "update_cost",
	"guest_faults", "writeprot_faults",
	"switches_to_nested", "switches_to_shadow",
	"nested_nodes", "protected_pages",
}

// WriteCSV exports the series as one row per epoch.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(csvHeader, ",")); err != nil {
		return err
	}
	for _, e := range s.Epochs {
		d := e.Delta
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%.6f,%d,%.3f,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d\n",
			e.Index, e.EndAccesses, e.EndClock,
			d.Accesses, d.Writes, d.TLBMisses, d.MissRate(),
			d.WalkRefs, d.RefsPerMiss(),
			d.VMExitTotal(), d.TrapCycles,
			d.PTUpdates(), d.PTUpdateTrapCycles, e.UpdateCost(),
			d.GuestPageFaults, d.WriteProtFaults,
			d.SwitchesToNested, d.SwitchesToShadow,
			d.NestedNodes, d.ProtectedPages)
		if err != nil {
			return err
		}
	}
	return nil
}

// Table renders the series as a human-readable adaptation table: one row
// per epoch with the rates that show agile paging converging (update cost
// falling, nested coverage growing over the churned parts).
func (s *Series) Table() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\taccesses\tmiss%\trefs/walk\tvm-exits\tpt-updates\tupd-cost\t->nested\t->shadow\tnested\tprotected")
	for _, e := range s.Epochs {
		d := e.Delta
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%d\t%d\t%.0f\t%d\t%d\t%d\t%d\n",
			e.Index, d.Accesses, 100*d.MissRate(), d.RefsPerMiss(),
			d.VMExitTotal(), d.PTUpdates(), e.UpdateCost(),
			d.SwitchesToNested, d.SwitchesToShadow,
			d.NestedNodes, d.ProtectedPages)
	}
	w.Flush()
	return b.String()
}
