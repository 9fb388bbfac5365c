package agilepaging

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	go test -bench BenchmarkTableI -benchmem        # Table I
//	go test -bench BenchmarkTableII .               # Table II / Figure 3
//	go test -bench BenchmarkFigure5 .               # Figure 5 (all 64 bars)
//	go test -bench BenchmarkTableVI .               # Table VI
//	go test -bench BenchmarkHeadline .              # §VII.A summary numbers
//	go test -bench BenchmarkAblations .             # §III-C/§IV design choices
//	go test -bench BenchmarkWalk .                  # per-walk hardware costs
//
// Each benchmark reports the paper's metric via b.ReportMetric so the
// regenerated rows appear directly in benchmark output; cmd/paperbench
// prints the same data as formatted tables.

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

const (
	benchAccesses = 120_000
	benchSeed     = 42
)

// -stream-cold drops the shared stream cache before every sweep iteration,
// so each one pays full workload generation — the cold path a fresh process
// hits. The default (warm) keeps streams cached across iterations:
//
//	go test -bench Figure5Serial -benchmem -run '^$' .               # warm
//	go test -bench Figure5Serial -benchmem -run '^$' . -stream-cold  # cold
var streamCold = flag.Bool("stream-cold", false,
	"reset the shared workload stream cache every sweep iteration (cold-generation baseline)")

// BenchmarkTableI regenerates paper Table I: per-technique walk cost and
// page-table update cost.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableISweep(context.Background(), sweep.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.MaxRefs), r.Technique.String()+"_max_refs")
				b.ReportMetric(r.UpdateCycles, r.Technique.String()+"_update_cycles")
			}
		}
	}
}

// BenchmarkTableII regenerates paper Table II: memory references per walk
// at each degree of nesting (4, 8, 12, 16, 20, 24).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIISweep(context.Background(), sweep.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for d, r := range rows {
				b.ReportMetric(float64(r.Refs), fmt.Sprintf("degree%d_refs", d))
			}
		}
	}
}

// figure5Cache shares one full sweep across the Figure 5 sub-benchmarks.
var figure5Cache struct {
	once sync.Once
	res  *experiments.Figure5Result
	err  error
}

func figure5(b *testing.B) *experiments.Figure5Result {
	b.Helper()
	figure5Cache.once.Do(func() {
		figure5Cache.res, figure5Cache.err = experiments.Figure5Sweep(context.Background(), sweep.Config{}, nil, benchAccesses, benchSeed)
	})
	if figure5Cache.err != nil {
		b.Fatal(figure5Cache.err)
	}
	return figure5Cache.res
}

// BenchmarkFigure5 regenerates paper Figure 5: one sub-benchmark per bar
// (workload × page size × technique), reporting the two overhead components
// as percentages.
func BenchmarkFigure5(b *testing.B) {
	res := figure5(b)
	for _, name := range workload.Names() {
		for _, ps := range experiments.PageSizes() {
			for _, tech := range experiments.Techniques() {
				row, ok := res.Get(name, ps, tech)
				if !ok {
					b.Fatalf("missing row %s/%v/%v", name, ps, tech)
				}
				b.Run(fmt.Sprintf("%s/%s:%s", name, ps, tech), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_ = row.TotalOv()
					}
					b.ReportMetric(100*row.WalkOv, "walk_ov_%")
					b.ReportMetric(100*row.VMMOv, "vmm_ov_%")
				})
			}
		}
	}
}

// BenchmarkFigure5Serial and BenchmarkFigure5Parallel time the full
// 64-simulation Figure 5 sweep end to end with one worker versus one worker
// per CPU. Identical parameters, so the ratio is the sweep speedup (compare
// with `go test -bench 'BenchmarkFigure5(Serial|Parallel)' -cpu N`).
func BenchmarkFigure5Serial(b *testing.B)   { benchFigure5Sweep(b, 1) }
func BenchmarkFigure5Parallel(b *testing.B) { benchFigure5Sweep(b, 0) }

func benchFigure5Sweep(b *testing.B, workers int) {
	// Sweep benchmarks start from a cold machine pool, so they measure the
	// steady state a sweep reaches, not the previous benchmark's leftovers.
	cpu.ResetMachinePool()
	for i := 0; i < b.N; i++ {
		// Drop memoized reports so every iteration simulates: these
		// benchmarks track simulation cost across PRs, not cache lookups
		// (BenchmarkFigure5SweepWarm measures the memoized path).
		repcache.Reset()
		if *streamCold {
			workload.ResetStreamCache()
		}
		res, err := experiments.Figure5Sweep(context.Background(), sweep.Config{Workers: workers}, nil, benchAccesses, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkCompareSweep times a serial multi-technique comparison of one
// workload — both page sizes under all four techniques, the shape of the
// Compare/RunAll facade. All eight simulations replay the same two
// (page-size) op streams, so this benchmark isolates the benefit of
// op-stream sharing across techniques.
func BenchmarkCompareSweep(b *testing.B) {
	cpu.ResetMachinePool()
	for i := 0; i < b.N; i++ {
		repcache.Reset()
		res, err := experiments.Figure5Sweep(context.Background(), sweep.Config{Workers: 1}, []string{"dedup"}, benchAccesses, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 8 {
			b.Fatalf("rows = %d, want 8", len(res.Rows))
		}
	}
}

// BenchmarkHeadline reports the §VII.A headline numbers derived from the
// Figure 5 sweep: agile's geometric-mean improvement over the best
// constituent and its slowdown versus native.
func BenchmarkHeadline(b *testing.B) {
	res := figure5(b)
	var h experiments.HeadlineResult
	for i := 0; i < b.N; i++ {
		h = experiments.Headline(res)
	}
	b.ReportMetric(100*h.GeoAgileVsBest4K, "agile_vs_best_4K_%")
	b.ReportMetric(100*h.GeoAgileVsNative4K, "agile_vs_native_4K_%")
	b.ReportMetric(100*h.GeoAgileVsBest2M, "agile_vs_best_2M_%")
	b.ReportMetric(100*h.GeoAgileVsNative2M, "agile_vs_native_2M_%")
}

// BenchmarkTableVI regenerates paper Table VI: the fraction of TLB misses
// served in each agile mode (4K pages, no MMU caches) per workload.
func BenchmarkTableVI(b *testing.B) {
	var rows []experiments.TableVIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableVISweep(context.Background(), sweep.Config{}, nil, benchAccesses, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*r.Fractions[0], r.Workload+"_shadow_%")
		b.ReportMetric(r.AvgRefs, r.Workload+"_avg_refs")
	}
}

// BenchmarkAblations regenerates the design-choice ablations (§III-C
// policies and §IV hardware optimizations).
func BenchmarkAblations(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		repcache.Reset()
		rows, err = experiments.AblationsSweep(context.Background(), sweep.Config{}, 40_000, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*(r.WalkOv+r.VMMOv), metricName(r.Name)+"_total_%")
	}
}

// metricName makes an ablation label usable as a benchmark metric unit
// (no whitespace allowed).
func metricName(s string) string {
	s = strings.ReplaceAll(s, " ", "")
	s = strings.ReplaceAll(s, ",", "_")
	return s
}

// BenchmarkModelValidation runs the paper's two-step Table IV methodology
// against direct simulation for one workload.
func BenchmarkModelValidation(b *testing.B) {
	var v experiments.ModelValidation
	var err error
	for i := 0; i < b.N; i++ {
		repcache.Reset()
		v, err = experiments.ValidateModelSweep(context.Background(), sweep.Config{}, "canneal", 60_000, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*v.DirectWalkOv, "direct_walk_%")
	b.ReportMetric(100*v.ProjectedWalkOv, "projected_walk_%")
}

// walkBench builds a single-translation fixture and measures the raw
// per-walk cost of one technique's state machine (no MMU caches).
func walkBench(b *testing.B, technique walker.Mode, agileNestedLevels int, fullNested bool) {
	mem := memsim.New(256 << 20)
	vmCfg := vmm.DefaultConfig(walker.ModeAgile)
	vmCfg.RAMBytes = 64 << 20
	vm, err := vmm.New(mem, vmm.NopMMU{}, 1, vmCfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := vm.NewProcess(1)
	if err != nil {
		b.Fatal(err)
	}
	gva := uint64(0x7f12_3456_7000)
	gpa, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		b.Fatal(err)
	}
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		b.Fatal(err)
	}
	switch {
	case fullNested:
		ctx.SetFullNested(true)
	case agileNestedLevels > 0:
		if _, err := ctx.HandleShadowFault(gva, false); err != nil {
			b.Fatal(err)
		}
		nodeLevel := 4 - agileNestedLevels
		var node uint64
		if nodeLevel == 0 {
			node = ctx.GPT().Root()
		} else {
			e, err := ctx.GPT().EntryAt(gva, nodeLevel-1)
			if err != nil {
				b.Fatal(err)
			}
			node = e.Addr()
		}
		if err := ctx.PlantSwitch(node); err != nil {
			b.Fatal(err)
		}
	default:
		if _, err := ctx.HandleShadowFault(gva, false); err != nil {
			b.Fatal(err)
		}
	}
	regs := ctx.Regs()
	regs.Mode = technique
	if technique == walker.ModeNative {
		regs.Root = ctx.SPT().Root()
	}
	w := walker.New(mem, nil, nil)
	b.ResetTimer()
	refs := 0
	for i := 0; i < b.N; i++ {
		res, fault := w.Walk(regs, gva, false)
		if fault != nil {
			b.Fatal(fault)
		}
		refs = res.Refs
	}
	b.ReportMetric(float64(refs), "mem_refs")
}

// BenchmarkWalk measures the simulator's raw per-walk cost for each state
// machine, reporting the architectural reference count alongside.
func BenchmarkWalk(b *testing.B) {
	b.Run("native", func(b *testing.B) { walkBench(b, walker.ModeNative, 0, false) })
	b.Run("shadow", func(b *testing.B) { walkBench(b, walker.ModeShadow, 0, false) })
	b.Run("nested", func(b *testing.B) { walkBench(b, walker.ModeNested, 0, false) })
	b.Run("agile-full-shadow", func(b *testing.B) { walkBench(b, walker.ModeAgile, 0, false) })
	b.Run("agile-leaf-nested", func(b *testing.B) { walkBench(b, walker.ModeAgile, 1, false) })
	b.Run("agile-full-nested", func(b *testing.B) { walkBench(b, walker.ModeAgile, 4, true) })
}

// BenchmarkSimulationThroughput measures end-to-end simulated accesses per
// second for one representative configuration, for tracking simulator
// performance itself.
func BenchmarkSimulationThroughput(b *testing.B) {
	prof, _ := workload.ProfileByName("astar")
	for i := 0; i < b.N; i++ {
		repcache.Reset()
		o := experiments.DefaultOptions(walker.ModeAgile, pagetable.Size4K)
		o.Accesses = 20_000
		o.Warmup = -1
		rep, err := runProfileForBench(prof.Name, o)
		if err != nil {
			b.Fatal(err)
		}
		if rep == 0 {
			b.Fatal("no accesses simulated")
		}
	}
}

func runProfileForBench(name string, o experiments.Options) (uint64, error) {
	rep, err := experiments.RunProfile(name, o)
	if err != nil {
		return 0, err
	}
	return rep.Accesses, nil
}

// BenchmarkSHSP regenerates the §VII.C comparison against selective
// hardware/software paging.
func BenchmarkSHSP(b *testing.B) {
	var rows []experiments.SHSPRow
	var err error
	for i := 0; i < b.N; i++ {
		repcache.Reset()
		rows, err = experiments.SHSPComparisonSweep(context.Background(), sweep.Config{}, []string{"dedup", "mcf"}, 60_000, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*r.SHSP, r.Workload+"_shsp_%")
		b.ReportMetric(100*r.Agile, r.Workload+"_agile_%")
	}
}

// runAllBenchConfigs builds a RunAll config list with 2x overlap: every
// unique (workload, technique) cell appears twice, the shape of a config
// list assembled from several experiment fragments. Every duplicate job
// reaches the report memo, which runs one simulation per unique cell and
// serves the copies from its singleflight or its stored reports.
func runAllBenchConfigs() []Config {
	var unique []Config
	for _, wl := range []string{"dedup", "mcf"} {
		for _, tech := range []Technique{Native, Nested, Shadow, Agile} {
			unique = append(unique, Config{
				Workload: wl, Technique: tech, PageSize: Page4K,
				Accesses: benchAccesses, Seed: benchSeed,
			})
		}
	}
	return append(append([]Config{}, unique...), unique...)
}

// BenchmarkRunAllDeduped times RunAll over a config list where every cell
// appears twice (see runAllBenchConfigs).
//
//   - cold drops the report cache each iteration: 8 simulations for 16
//     configs, the duplicates attaching to the first copy's memo
//     singleflight or hitting its stored report.
//   - warm keeps the cache primed, so all 16 asks are stored-report
//     lookups — the steady state of repeated evaluation runs in one
//     process.
func BenchmarkRunAllDeduped(b *testing.B) {
	cfgs := runAllBenchConfigs()
	run := func(b *testing.B) {
		res, err := RunAllContext(context.Background(), 0, cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(cfgs) {
			b.Fatalf("results = %d, want %d", len(res), len(cfgs))
		}
	}
	b.Run("cold", func(b *testing.B) {
		cpu.ResetMachinePool()
		for i := 0; i < b.N; i++ {
			repcache.Reset()
			run(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cpu.ResetMachinePool()
		repcache.Reset()
		run(b) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
}

// BenchmarkFigure5SweepWarm times a repeated Figure 5 sweep with the report
// cache primed — the cost of regenerating the figure after any other driver
// already simulated its cells. Compare against BenchmarkFigure5Parallel
// (same sweep, cache dropped per iteration) for the memoization win.
func BenchmarkFigure5SweepWarm(b *testing.B) {
	cpu.ResetMachinePool()
	repcache.Reset()
	sweepOnce := func() {
		res, err := experiments.Figure5Sweep(context.Background(), sweep.Config{}, nil, benchAccesses, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
	sweepOnce() // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOnce()
	}
}

// BenchmarkScenarioBuild records a churn-sized script (~450k ops: two
// processes, access bursts between context switches, a COW snapshot and a
// munmap/mmap pair every tenth burst), the set-up cost a Scenario user
// pays before the first Run. Build with -benchmem: B/op is the op log's
// footprint plus any copying it does while growing.
func BenchmarkScenarioBuild(b *testing.B) {
	const (
		heap     = uint64(0x4000_0000)
		region   = uint64(0x8000_0000)
		pages    = 8192
		bursts   = 450
		perBurst = 1000
	)
	b.ReportAllocs()
	var ops int
	for i := 0; i < b.N; i++ {
		s := NewScenario().AddProcess(1)
		for pid := 0; pid < 2; pid++ {
			s.Switch(pid).Map(pid, heap, pages<<12, Page4K).Populate(pid, heap)
		}
		s.Map(0, region, 256<<12, Page4K)
		va := uint64(1)
		for burst := 0; burst < bursts; burst++ {
			pid := burst % 2
			s.Switch(pid)
			for k := 0; k < perBurst; k++ {
				va = va*6364136223846793005 + 1442695040888963407
				if k%4 == 0 {
					s.Write(pid, heap+(va>>40)%pages<<12)
				} else {
					s.Touch(pid, heap+(va>>40)%pages<<12)
				}
			}
			if burst%10 == 0 {
				s.Snapshot(0, region).Unmap(0, region).Map(0, region, 256<<12, Page4K)
			}
		}
		ops = s.Len()
	}
	b.ReportMetric(float64(ops), "ops")
}
