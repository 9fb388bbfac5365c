// Command agilesim runs one workload under one memory-virtualization
// configuration and prints the measurement report.
//
// Usage:
//
//	agilesim -workload dedup -technique agile -pagesize 4K
//	agilesim -workload mcf -compare            # all four techniques
//	agilesim -workload mcf -compare -fail collect
//	agilesim -list                             # available workloads
//
// In -compare, SIGINT/SIGTERM interrupt gracefully: in-flight simulations
// finish, the completed-cell count and cache statistics go to stderr, and
// the process exits with status 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"agilepaging"
	"agilepaging/internal/runenv"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line and returns the process exit status: 0 on
// success, 1 when the simulation fails, 2 for a usage error, 130 when an
// interrupt cuts -compare short. ctx's cancellation acts like SIGINT.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agilesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	env := runenv.Register(fs)
	var (
		workloadName = fs.String("workload", "dedup", "workload name (see -list)")
		technique    = fs.String("technique", "agile", "native | nested | shadow | agile")
		pageSize     = fs.String("pagesize", "4K", "4K | 2M | 1G")
		warmup       = fs.Int("warmup", 0, "warmup accesses (0 = accesses/2, -1 = none)")
		compare      = fs.Bool("compare", false, "run all four techniques and compare")
		list         = fs.Bool("list", false, "list available workloads")
		noCaches     = fs.Bool("no-mmu-caches", false, "disable page walk caches and nested TLB")
		hwAD         = fs.Bool("hw-ad", false, "enable the §IV hardware A/D optimization")
		ctxCache     = fs.Int("ctx-cache", 0, "entries in the §IV context-switch cache (0 = off)")
		shsp         = fs.Bool("shsp", false, "use the SHSP prior-work baseline instead of the agile manager (technique must be agile)")
		jsonOut      = fs.Bool("json", false, "emit the result as JSON")
		metrics      = fs.String("metrics", "", "write the epoch telemetry series to this file (.csv for CSV, else JSON)")
		walkTrace    = fs.String("walk-trace", "", "write the last page walks as Chrome trace-event JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	ctx, stop, err := env.Start(ctx, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "agilesim:", err)
		return 2
	}
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "agilesim:", err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(agilepaging.Workloads(), "\n"))
		return 0
	}

	tech, err := agilepaging.ParseTechnique(*technique)
	if err != nil {
		return fail(err)
	}
	ps, err := agilepaging.ParsePageSize(*pageSize)
	if err != nil {
		return fail(err)
	}

	if *compare {
		opts := agilepaging.RunAllOptions{Workers: env.Parallel, CollectAll: env.CollectAll()}
		results, completed, err := agilepaging.CompareWith(ctx, opts, *workloadName, ps, env.Accesses, env.Seed)
		if err != nil {
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				done := 0
				for _, ok := range completed {
					if ok {
						done++
					}
				}
				fmt.Fprintf(stderr, "agilesim: interrupted after %d of %d completed simulations\n",
					done, len(completed))
				return 130
			}
			// Under -fail collect the healthy cells still compare; print
			// them before reporting the failures.
			printComparison(stdout, results, completed)
			return fail(err)
		}
		printComparison(stdout, results, completed)
		return 0
	}

	if *metrics != "" || *walkTrace != "" {
		// Telemetry needs the experiments layer directly: the facade's
		// Result is an end-of-run aggregate, while the recorder and the
		// walk-event ring attach to the machine for the measured window.
		err := runWithTelemetry(stdout, telemetryRun{
			workload:  *workloadName,
			technique: *technique,
			pageSize:  *pageSize,
			accesses:  env.Accesses,
			warmup:    *warmup,
			seed:      env.Seed,
			noCaches:  *noCaches,
			hwAD:      *hwAD,
			ctxCache:  *ctxCache,
			shsp:      *shsp,
			metrics:   *metrics,
			epochLen:  env.MetricsEpoch,
			walkTrace: *walkTrace,
		})
		if err != nil {
			return fail(err)
		}
		return 0
	}

	res, err := agilepaging.Run(agilepaging.Config{
		Workload:              *workloadName,
		Technique:             tech,
		PageSize:              ps,
		Accesses:              env.Accesses,
		Warmup:                *warmup,
		Seed:                  env.Seed,
		DisableMMUCaches:      *noCaches,
		HardwareAD:            *hwAD,
		CtxSwitchCacheEntries: *ctxCache,
		SHSPBaseline:          *shsp,
	})
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	printResult(stdout, res)
	return 0
}

func printResult(out io.Writer, r agilepaging.Result) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "workload\t%s\n", r.Workload)
	fmt.Fprintf(w, "configuration\t%s pages, %s paging\n", r.PageSize, r.Technique)
	fmt.Fprintf(w, "page-walk overhead\t%.1f%%\n", 100*r.WalkOverhead)
	fmt.Fprintf(w, "VMM overhead\t%.1f%%\n", 100*r.VMMOverhead)
	fmt.Fprintf(w, "total overhead\t%.1f%%\n", 100*r.TotalOverhead)
	fmt.Fprintf(w, "accesses\t%d\n", r.Accesses)
	fmt.Fprintf(w, "TLB misses\t%d (%.1f MPKI)\n", r.TLBMisses, r.MPKI)
	fmt.Fprintf(w, "walk refs/miss\t%.2f (p50 %d, p95 %d)\n", r.AvgRefsPerMiss, r.RefsP50, r.RefsP95)
	fmt.Fprintf(w, "VM exits\t%d\n", r.VMExits)
	fmt.Fprintf(w, "guest page faults\t%d\n", r.GuestFaults)
	if r.Technique == agilepaging.Agile {
		fmt.Fprintf(w, "agile switches\t%d to nested, %d to shadow\n", r.SwitchesToNested, r.SwitchesToShadow)
	}
	w.Flush()
}

// printComparison renders the -compare table. completed masks which slots
// hold real measurements (nil = all); slots without one — failed, or never
// run after a fail-fast stop — are marked rather than printed as a row of
// misleading zeros (the returned error attributes the actual failures).
func printComparison(out io.Writer, results []agilepaging.Result, completed []bool) {
	if len(results) == 0 {
		return
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "technique\twalk%\tvmm%\ttotal%\tmisses\trefs/miss\tvm-exits")
	for i, r := range results {
		if completed != nil && !completed[i] {
			fmt.Fprintf(w, "%s\t(no result)\t\t\t\t\t\n", agilepaging.Techniques()[i])
			continue
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%d\t%.2f\t%d\n",
			r.Technique, 100*r.WalkOverhead, 100*r.VMMOverhead, 100*r.TotalOverhead,
			r.TLBMisses, r.AvgRefsPerMiss, r.VMExits)
	}
	w.Flush()
}
