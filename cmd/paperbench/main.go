// Command paperbench regenerates the tables and figures of "Agile Paging:
// Exceeding the Best of Nested and Shadow Paging" (ISCA 2016) from the
// simulator.
//
// Usage:
//
//	paperbench -all                  # everything
//	paperbench -table 1              # Table I
//	paperbench -table 2              # Table II (+ Figure 3 sequences)
//	paperbench -table 6              # Table VI
//	paperbench -figure 1             # Figure 1 walk traces
//	paperbench -figure 5             # Figure 5 sweep + §VII.A headline
//	paperbench -ablations            # §III-C / §IV design-choice ablations
//	paperbench -validate canneal     # Table IV model vs direct simulation
//	paperbench -metrics out.json     # adaptation-curve epoch telemetry
//	paperbench -run mcf -technique shadow -pagesize 2M   # one sweep cell
//	paperbench -all -parallel 8      # same results, 8 simulations at a time
//	paperbench -all -fail collect    # run past bad cells, report them all
//
// SIGINT/SIGTERM interrupt gracefully: in-flight simulations finish, the
// completed-cell count and cache statistics go to stderr, and the process
// exits with status 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// options holds the parsed command line. Parsing is separated from main so
// it can be tested without executing simulations.
type options struct {
	table      int
	figure     int
	ablations  bool
	shsp       bool
	sens       bool
	validate   string
	all        bool
	accesses   int
	seed       int64
	workloads  []string
	csvDir     string
	parallel   int
	progress   bool
	fail       string
	cpuProfile string
	memProfile string

	metrics      string
	metricsEpoch int
	walkTrace    string

	runWorkload string
	technique   string
	pageSize    string

	streamCacheMB  int64
	reportCacheMB  int64
	reportCacheDir string
	machinePool    int
}

// parseArgs parses the paperbench command line (without the program name).
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o         options
		workloads string
	)
	fs.IntVar(&o.table, "table", 0, "regenerate table 1, 2, 3, 5, or 6")
	fs.IntVar(&o.figure, "figure", 0, "regenerate figure 1 or 5")
	fs.BoolVar(&o.ablations, "ablations", false, "run the design-choice ablations")
	fs.BoolVar(&o.shsp, "shsp", false, "compare against the SHSP prior-work baseline (§VII.C)")
	fs.BoolVar(&o.sens, "sensitivity", false, "sweep the cost-model calibration and check robustness")
	fs.StringVar(&o.validate, "validate", "", "validate the Table IV model on a workload")
	fs.BoolVar(&o.all, "all", false, "regenerate everything")
	fs.IntVar(&o.accesses, "accesses", 120_000, "measured accesses per run")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.StringVar(&workloads, "workloads", "", "comma-separated workload subset (default: all)")
	fs.StringVar(&o.csvDir, "csv", "", "also write figure5.csv / table6.csv into this directory")
	fs.IntVar(&o.parallel, "parallel", 0, "simulations to run concurrently (0 = one per CPU, 1 = serial)")
	fs.BoolVar(&o.progress, "progress", false, "print per-simulation progress to stderr")
	fs.StringVar(&o.fail, "fail", "fast", "error policy: 'fast' stops at the first failed cell, 'collect' runs every cell and reports all failures")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.metrics, "metrics", "", "run the adaptation-curve experiment and write its epoch series to this file (.csv for CSV, else JSON)")
	fs.IntVar(&o.metricsEpoch, "metrics-epoch", 2000, "telemetry sampling interval in accesses for -metrics")
	fs.StringVar(&o.walkTrace, "walk-trace", "", "with -metrics: also write the last page walks as Chrome trace-event JSON to this file")
	fs.Int64Var(&o.streamCacheMB, "stream-cache", workload.DefaultStreamCacheBytes>>20, "shared workload stream cache budget in MiB (0 disables sharing, -1 unbounded)")
	fs.Int64Var(&o.reportCacheMB, "report-cache", repcache.DefaultBudgetBytes>>20, "memoized simulation report cache budget in MiB (0 disables memoization, -1 unbounded)")
	fs.StringVar(&o.reportCacheDir, "report-cache-dir", "", "persist simulation reports in this directory and reuse them across runs")
	fs.IntVar(&o.machinePool, "machine-pool", cpu.DefaultMachinePoolCapacity, "idle simulated machines kept for reuse across sweep cells (0 disables pooling)")
	fs.StringVar(&o.runWorkload, "run", "", "run one sweep cell: this workload under -technique and -pagesize")
	fs.StringVar(&o.technique, "technique", "agile", "technique for -run (native | nested | shadow | agile)")
	fs.StringVar(&o.pageSize, "pagesize", "4K", "page size for -run (4K | 2M | 1G)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.fail != "fast" && o.fail != "collect" {
		return options{}, fmt.Errorf("-fail %q: want 'fast' or 'collect'", o.fail)
	}
	if workloads != "" {
		o.workloads = strings.Split(workloads, ",")
	}
	return o, nil
}

// completedSims counts successfully finished simulations across every sweep
// of the invocation, for the interrupt report.
var completedSims atomic.Int64

// sweepConfig builds the shared sweep configuration: the requested worker
// count and error policy. OnProgress is always installed to
// feed the interrupt report's completed-simulation counter; it prints a
// stderr line per finished simulation only when -progress is set.
func (o options) sweepConfig(stderr io.Writer) sweep.Config {
	cfg := sweep.Config{Workers: o.parallel}
	progress := o.progress
	cfg.OnProgress = func(p sweep.Progress) {
		completedSims.Add(1)
		if progress {
			fmt.Fprintf(stderr, "  [%d/%d] %s (%.2fs)\n", p.Done, p.Total, p.Key, p.Elapsed.Seconds())
		}
	}
	if o.fail == "collect" {
		cfg.ErrorPolicy = sweep.CollectAll
	}
	return cfg
}

// startProfiles begins CPU profiling (when cpuPath is non-empty) and returns
// a stop function that finishes the CPU profile and writes the heap profile
// (when memPath is non-empty). The stop function must run before the process
// exits, including on error paths.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
			}
		}
	}, nil
}

func main() {
	opts, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}

	applyStreamCacheBudget(opts.streamCacheMB)
	applyReportCacheBudget(opts.reportCacheMB)
	repcache.SetDir(opts.reportCacheDir)
	cpu.SetMachinePoolCapacity(opts.machinePool)

	stopProfiles, err := startProfiles(opts.cpuProfile, opts.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	// SIGINT/SIGTERM cancel the context: in-flight simulations finish, no
	// new ones start, and the run() wrapper reports what completed before
	// exiting nonzero. A second signal kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		// Once the first signal cancels the context, release the handler so
		// a second signal terminates immediately.
		<-ctx.Done()
		stopSignals()
	}()
	scfg := opts.sweepConfig(os.Stderr)
	names := opts.workloads

	ran := false
	run := func(name string, fn func() error) {
		ran = true
		fmt.Printf("==> %s\n", name)
		if err := fn(); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %s: interrupted after %d completed simulations\n",
					name, completedSims.Load())
				printCacheStats(os.Stderr, opts)
				stopProfiles()
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			stopProfiles()
			os.Exit(1)
		}
		fmt.Println()
	}

	if opts.all || opts.table == 1 {
		run("Table I", func() error {
			// Each sweep driver returns whatever rows completed even on
			// error (-fail collect keeps going past bad cells), so the
			// partial table always prints before the failure is reported.
			rows, err := experiments.TableISweep(ctx, scfg)
			if len(rows) > 0 {
				fmt.Print(experiments.FormatTableI(rows))
			}
			return err
		})
	}
	if opts.all || opts.table == 3 {
		run("Table III (system configuration)", func() error {
			fmt.Print(experiments.TableIII())
			return nil
		})
	}
	if opts.all || opts.table == 5 {
		run("Table V (workload characteristics)", func() error {
			rows, err := experiments.TableVSweep(ctx, scfg, opts.accesses, opts.seed)
			if len(rows) > 0 {
				fmt.Print(experiments.FormatTableV(rows))
			}
			return err
		})
	}
	if opts.all || opts.table == 2 {
		run("Table II / Figure 3", func() error {
			rows, err := experiments.TableIISweep(ctx, scfg)
			if len(rows) > 0 {
				fmt.Print(experiments.FormatTableII(rows))
			}
			return err
		})
	}
	if opts.all || opts.figure == 1 {
		run("Figure 1 walk traces", func() error {
			traces, err := experiments.WalkTraces()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatWalkTraces(traces))
			return nil
		})
	}
	if opts.all || opts.figure == 5 {
		run("Figure 5 + headline", func() error {
			res, err := experiments.Figure5Sweep(ctx, scfg, names, opts.accesses, opts.seed)
			if err != nil {
				// Partial figure: print completed cells with failures marked,
				// skip the chart/headline/CSV derived views.
				if res != nil && len(res.Rows)+len(res.Failed) > 0 {
					fmt.Print(experiments.FormatFigure5(res))
				}
				return err
			}
			fmt.Print(experiments.FormatFigure5(res))
			fmt.Println()
			fmt.Print(experiments.FormatFigure5Chart(res))
			fmt.Println()
			fmt.Print(experiments.FormatHeadline(experiments.Headline(res)))
			if opts.csvDir != "" {
				f, err := os.Create(filepath.Join(opts.csvDir, "figure5.csv"))
				if err != nil {
					return err
				}
				defer f.Close()
				if err := experiments.WriteFigure5CSV(f, res); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", f.Name())
			}
			return nil
		})
	}
	if opts.all || opts.table == 6 {
		run("Table VI", func() error {
			rows, err := experiments.TableVISweep(ctx, scfg, names, opts.accesses, opts.seed)
			if err != nil {
				if len(rows) > 0 {
					fmt.Print(experiments.FormatTableVI(rows))
				}
				return err
			}
			fmt.Print(experiments.FormatTableVI(rows))
			if opts.csvDir != "" {
				f, err := os.Create(filepath.Join(opts.csvDir, "table6.csv"))
				if err != nil {
					return err
				}
				defer f.Close()
				if err := experiments.WriteTableVICSV(f, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", f.Name())
			}
			return nil
		})
	}
	if opts.all || opts.shsp {
		run("SHSP comparison", func() error {
			rows, err := experiments.SHSPComparisonSweep(ctx, scfg, names, opts.accesses, opts.seed)
			if len(rows) > 0 {
				fmt.Print(experiments.FormatSHSP(rows))
			}
			return err
		})
	}
	if opts.all || opts.sens {
		run("Cost-model sensitivity", func() error {
			rows, err := experiments.SensitivitySweep(ctx, scfg, opts.accesses, opts.seed)
			if len(rows) > 0 {
				fmt.Print(experiments.FormatSensitivity(rows))
			}
			return err
		})
	}
	if opts.all || opts.ablations {
		run("Ablations", func() error {
			rows, err := experiments.AblationsSweep(ctx, scfg, opts.accesses/2, opts.seed)
			if err != nil {
				if len(rows) > 0 {
					fmt.Print(experiments.FormatAblations(rows))
				}
				return err
			}
			fmt.Print(experiments.FormatAblations(rows))
			fmt.Println()
			fmt.Print(experiments.FormatTrapCosts())
			return nil
		})
	}
	if opts.validate != "" || opts.all {
		wl := opts.validate
		if wl == "" {
			wl = "canneal"
		}
		run("Table IV model validation ("+wl+")", func() error {
			v, err := experiments.ValidateModelSweep(ctx, scfg, wl, opts.accesses, opts.seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatModelValidation(v))
			return nil
		})
	}

	if opts.runWorkload != "" {
		run("Single cell ("+opts.runWorkload+")", func() error {
			return runCell(opts)
		})
	}

	if opts.metrics != "" {
		run("Adaptation curve (Table I in time)", func() error {
			var ring *telemetry.EventRing
			if opts.walkTrace != "" {
				ring = telemetry.NewEventRing(0)
			}
			s, err := experiments.AdaptationCurve(opts.metricsEpoch, 0, ring)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAdaptation(s))
			if err := writeSeries(opts.metrics, s); err != nil {
				return err
			}
			fmt.Printf("wrote %d epochs to %s\n", len(s.Epochs), opts.metrics)
			if ring != nil {
				f, err := os.Create(opts.walkTrace)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := ring.WriteChromeTrace(f); err != nil {
					return err
				}
				fmt.Printf("wrote %d walk events to %s (chrome://tracing)\n", len(ring.Events()), opts.walkTrace)
			}
			return nil
		})
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "paperbench: nothing selected; pass -all, -table N, -figure N, -ablations, -shsp, -sensitivity, -validate W, -run W, or -metrics FILE")
		os.Exit(2)
	}
	if opts.progress {
		printCacheStats(os.Stderr, opts)
	}
}

// printCacheStats writes the machine-pool and cache summaries — the
// -progress epilogue, also printed when an interrupt cuts a run short.
func printCacheStats(w io.Writer, opts options) {
	hits, misses, retired, idle := cpu.MachinePoolStats()
	fmt.Fprintf(w, "machine pool: %d reused, %d built, %d retired, %d idle\n", hits, misses, retired, idle)
	fmt.Fprint(w, formatStreamCacheStats(workload.StreamCacheInfo()))
	fmt.Fprint(w, formatReportCacheStats(repcache.Info(), opts.reportCacheDir != ""))
}

// formatStreamCacheStats renders the -progress stream-cache summary line.
func formatStreamCacheStats(info workload.StreamCacheSnapshot) string {
	return fmt.Sprintf("stream cache: %d hits, %d generated, %d streams, %.1f MiB packed\n",
		info.Hits, info.Misses, info.Streams, float64(info.Bytes)/(1<<20))
}

// formatReportCacheStats renders the -progress report-cache summary line(s).
// The disk line appears only when -report-cache-dir was given.
func formatReportCacheStats(info repcache.Snapshot, disk bool) string {
	out := fmt.Sprintf("report cache: %d hits, %d simulated, %d deduped, %d reports\n",
		info.Hits, info.Misses, info.Deduped, info.Reports)
	if disk {
		out += fmt.Sprintf("report disk cache: %d loaded, %d simulated, %d write errors\n",
			info.DiskHits, info.DiskMisses, info.DiskErrors)
	}
	return out
}

// runCell simulates one (workload, technique, page size) cell and prints
// its report, the quick way to re-measure a single bar of Figure 5. The
// -technique/-pagesize strings parse through the same walker.ParseMode /
// pagetable.ParseSize parsers every tool shares.
func runCell(opts options) error {
	mode, err := walker.ParseMode(opts.technique)
	if err != nil {
		return err
	}
	size, err := pagetable.ParseSize(opts.pageSize)
	if err != nil {
		return err
	}
	o := experiments.DefaultOptions(mode, size)
	o.Accesses = opts.accesses
	o.Seed = opts.seed
	rep, err := experiments.RunProfile(opts.runWorkload, o)
	if err != nil {
		return err
	}
	fmt.Printf("%s / %s pages / %s paging\n", opts.runWorkload, size, mode)
	fmt.Printf("  walk overhead   %6.1f%%\n", 100*rep.WalkOverhead())
	fmt.Printf("  VMM overhead    %6.1f%%\n", 100*rep.VMMOverhead())
	fmt.Printf("  total overhead  %6.1f%%\n", 100*rep.TotalOverhead())
	fmt.Printf("  TLB misses      %d (%.1f MPKI, %.2f refs/miss)\n",
		rep.Machine.TLBMisses, rep.MPKI(), rep.AvgRefsPerMiss())
	fmt.Printf("  VM exits        %d\n", rep.VMM.TotalTraps())
	return nil
}

// applyStreamCacheBudget translates the -stream-cache MiB flag into the
// workload package's byte budget (negative passes through as unbounded).
func applyStreamCacheBudget(mib int64) {
	if mib < 0 {
		workload.SetStreamCacheBudget(-1)
		return
	}
	workload.SetStreamCacheBudget(mib << 20)
}

// applyReportCacheBudget translates the -report-cache MiB flag into the
// repcache package's byte budget (negative passes through as unbounded).
func applyReportCacheBudget(mib int64) {
	if mib < 0 {
		repcache.SetBudget(-1)
		return
	}
	repcache.SetBudget(mib << 20)
}

// writeSeries exports the epoch series by extension: .csv selects CSV,
// anything else the self-describing JSON form.
func writeSeries(path string, s *telemetry.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return s.WriteCSV(f)
	}
	return s.WriteJSON(f)
}
