package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// metricDef names one printed metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, as a user of the simulator
// sees them. Host time unless the name starts with sim_.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_accesses_per_s", "1/s", "higher"},
	{"cells_per_s", "1/s", "higher"},
	{"cell_ms_p50", "ms", "lower"},
	{"cell_ms_p80", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"mallocs_k", "k", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "fraction", "higher"},
	{"sim_agile_vs_best_pct", "%", "higher"},
	{"sim_agile_vs_native_pct", "%", "lower"},
}

// layers are the rows of the traced run's CPU split that get metrics of
// their own: the simulator's packages, the root package ("facade"), the
// benchmark itself and the runtime. Any other package of the module is
// summed into "other" and still printed in the table by name.
var layers = []string{
	"memsim", "pagetable", "tlb", "ptwc", "walker", "guest", "vmm", "core", "cpu",
	"workload", "repcache", "sweep", "experiments", "facade", "runtime", "bench", "other",
}

// perLayer lists the traced run's metrics.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_frac", "fraction", "lower"}, metricDef{l + ".self_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"tlb.mpki", "1/kinst", "lower"},
		metricDef{"walker.refs_per_miss", "count", "lower"},
		metricDef{"vmm.exits", "count", "lower"},
		metricDef{"guest.faults", "count", "lower"},
		metricDef{"core.to_nested", "count", "lower"},
		metricDef{"core.to_shadow", "count", "lower"},
		metricDef{"tlb.ns_per_access", "ns", "lower"},
		metricDef{"walker.ns_per_ref", "ns", "lower"},
		metricDef{"vmm.us_per_exit", "us", "lower"},
		metricDef{"repcache.us_per_cell", "us", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_cpu_frac", "fraction", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	errors            []string
	values            map[string]float64
	table             []layerRow // traced runs: every layer found, by self time
	// kept for the layer metrics
	untraced, traced []passRecord
	events           events
}

// addError records a distinct failure message; a run that fails every
// pass the same way reports it once.
func (res *result) addError(msg string) {
	for _, m := range res.errors {
		if m == msg {
			return
		}
	}
	res.errors = append(res.errors, msg)
}

type layerRow struct {
	name string
	ns   int64
}

// cellsPerPass is how many results one pass of each workload produces.
func cellsPerPass(workload string, seed int64) int {
	switch workload {
	case figure5Cold:
		return len(figure5Configs(seed))
	case churn:
		return len(churnTechniques)
	}
	return len(campaignConfigs(seed))
}

// summarize checks every pass and computes the end-to-end metrics.
func summarize(workload string, seed int64, runs []childRun, spawnErrs []string) (*result, error) {
	var recorded map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	seedKey := strconv.FormatInt(seed, 10)
	want, haveWant := recorded[workload][seedKey]
	wantFig5, haveFig5 := recorded[figure5Cold][seedKey]
	if !haveWant {
		fmt.Fprintf(os.Stderr, "perfbench: no recorded digest for %s seed %d; checking passes against each other\n", workload, seed)
	}

	res := &result{values: map[string]float64{}}
	for _, msg := range spawnErrs {
		res.addError(msg)
	}
	var setups, rss []float64
	for _, run := range runs {
		if run.setup > 0 {
			setups = append(setups, run.setup.Seconds())
		}
		if run.rssMB > 0 {
			rss = append(rss, run.rssMB)
		}
		for _, msg := range run.report.Errors {
			res.addError(msg)
		}
		if len(run.report.Passes) == 0 {
			// A pass process that died counts one pass of failed cells.
			n := cellsPerPass(workload, seed)
			res.attempted += n
			res.failed += n
			continue
		}
		if res.events == (events{}) {
			res.events = run.report.Events
			res.values["sim_agile_vs_best_pct"] = run.report.VsBestPct
			res.values["sim_agile_vs_native_pct"] = run.report.VsNativePct
		}
		fig5OK := true
		if workload == rerunWarm {
			if !haveFig5 {
				wantFig5, haveFig5 = run.report.Figure5Digest, true
			}
			if run.report.Figure5Digest != wantFig5 {
				fig5OK = false
				res.addError(fmt.Sprintf("rerun-warm: Figure 5 results digest %s, want %s", run.report.Figure5Digest, wantFig5))
			}
		}
		for _, p := range run.report.Passes {
			if !haveWant {
				want, haveWant = p.Digest, true
			}
			if p.Digest != want || !fig5OK {
				if p.Digest != want {
					res.addError(fmt.Sprintf("%s: results digest %s, want %s", workload, p.Digest, want))
				}
				p.Failed = p.Cells
			}
			res.attempted += p.Cells
			res.failed += p.Failed
			if p.Traced {
				res.traced = append(res.traced, p)
			} else {
				res.untraced = append(res.untraced, p)
			}
		}
	}
	if len(res.untraced) == 0 {
		return nil, fmt.Errorf("%s: no untraced pass completed: %v", workload, res.errors)
	}

	walls := make([]float64, 0, len(res.untraced))
	var cellMs, allocs, mallocs []float64
	for _, p := range res.untraced {
		walls = append(walls, float64(p.WallNs)/1e9)
		allocs = append(allocs, float64(p.AllocBytes)/1e6)
		mallocs = append(mallocs, float64(p.Mallocs)/1e3)
		for _, ns := range p.CellNs {
			cellMs = append(cellMs, float64(ns)/1e6)
		}
	}
	wall := median(walls)
	p0 := res.untraced[0]
	v := res.values
	v["setup_s"] = median(setups)
	v["wall_s"] = wall
	v["sim_accesses_per_s"] = float64(p0.SimAccesses) / wall
	v["cells_per_s"] = float64(p0.Cells) / wall
	v["cell_ms_p50"] = quantile(cellMs, 0.5)
	v["cell_ms_p80"] = quantile(cellMs, 0.8)
	v["alloc_mb"] = median(allocs)
	v["mallocs_k"] = median(mallocs)
	v["peak_rss_mb"] = quantile(rss, 1)
	v["ok_frac"] = 1 - float64(res.failed)/float64(max(res.attempted, 1))
	return res, nil
}

// addLayerMetrics folds the traced passes' CPU profiles into layers and
// derives the per-layer metrics.
func addLayerMetrics(res *result, runs []childRun, profilePath func(int) string) error {
	if len(res.traced) == 0 {
		return fmt.Errorf("no traced pass completed: %v", res.errors)
	}
	folded := map[string]int64{}
	for i, run := range runs {
		if !run.traced || len(run.report.Passes) == 0 {
			continue
		}
		data, err := os.ReadFile(profilePath(i))
		if err != nil {
			return err
		}
		samples, err := parseCPUProfile(data)
		if err != nil {
			return err
		}
		for layer, ns := range foldLayers(samples) {
			folded[layer] += ns
		}
	}
	var total int64
	for name, ns := range folded {
		total += ns
		res.table = append(res.table, layerRow{name, ns})
	}
	sort.Slice(res.table, func(i, j int) bool {
		if res.table[i].ns != res.table[j].ns {
			return res.table[i].ns > res.table[j].ns
		}
		return res.table[i].name < res.table[j].name
	})

	v := res.values
	passes := float64(len(res.traced))
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
	}
	perPassNs := map[string]float64{}
	for name, ns := range folded {
		if !named[name] {
			name = "other"
		}
		perPassNs[name] += float64(ns) / passes
	}
	for _, l := range layers {
		v[l+".self_ms"] = perPassNs[l] / 1e6
		v[l+".self_frac"] = 0
		if total > 0 {
			v[l+".self_frac"] = perPassNs[l] * passes / float64(total)
		}
	}

	e := res.events
	p0 := res.traced[0]
	v["tlb.mpki"] = e.MPKI
	v["walker.refs_per_miss"] = ratio(float64(e.WalkRefs), float64(e.TLBMisses))
	v["vmm.exits"] = float64(e.VMExits)
	v["guest.faults"] = float64(e.GuestFaults)
	v["core.to_nested"] = float64(e.ToNested)
	v["core.to_shadow"] = float64(e.ToShadow)
	v["tlb.ns_per_access"] = ratio(perPassNs["tlb"], float64(p0.SimAccesses))
	v["walker.ns_per_ref"] = ratio(perPassNs["walker"], float64(e.WalkRefs))
	v["vmm.us_per_exit"] = ratio(perPassNs["vmm"]/1e3, float64(e.VMExits))
	v["repcache.us_per_cell"] = ratio(perPassNs["repcache"]/1e3, float64(p0.Cells))

	var cycles, gcCPU, usedCPU float64
	var untracedWalls, tracedWalls []float64
	for _, p := range res.untraced {
		cycles += float64(p.GCCycles)
		gcCPU += p.GCCPU
		usedCPU += p.UsedCPU
		untracedWalls = append(untracedWalls, float64(p.WallNs))
	}
	for _, p := range res.traced {
		tracedWalls = append(tracedWalls, float64(p.WallNs))
	}
	v["runtime.gc_cycles"] = cycles / float64(len(res.untraced))
	v["runtime.gc_cpu_frac"] = ratio(gcCPU, usedCPU)
	v["trace.overhead_frac"] = ratio(median(tracedWalls), median(untracedWalls))
	return nil
}

// print writes the human-readable report and then, as the last line, the
// JSON result.
func (res *result) print(w io.Writer, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer()
		fmt.Fprintf(w, "%-14s %10s %8s\n", "layer", "self ms", "share")
		var total int64
		for _, row := range res.table {
			total += row.ns
		}
		passes := float64(len(res.traced))
		for _, row := range res.table {
			fmt.Fprintf(w, "%-14s %10.1f %7.1f%%\n", row.name, float64(row.ns)/1e6/passes, 100*float64(row.ns)/float64(total))
		}
	}
	for _, msg := range res.errors {
		fmt.Fprintln(w, "error:", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.failed == 0 && len(res.errors) == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		x := res.values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out.Metrics[d.name] = value{x, d.unit}
		better := ""
		if d.better != "" {
			better = d.better + " is better"
		}
		fmt.Fprintf(w, "%-26s %16.6g %-8s %s\n", d.name, x, d.unit, better)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
