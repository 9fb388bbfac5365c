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
	"path/filepath"
	"strings"

	"agilepaging/internal/experiments"
	"agilepaging/internal/runenv"
	"agilepaging/internal/telemetry"
)

// options holds the parsed command line. Parsing is separated from run so
// it can be tested without executing simulations.
type options struct {
	env *runenv.Env

	table     int
	figure    int
	ablations bool
	shsp      bool
	sens      bool
	validate  string
	all       bool
	workloads []string
	csvDir    string
	metrics   string
	walkTrace string
}

// parseArgs parses the paperbench command line (without the program name).
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o         = options{env: runenv.Register(fs)}
		workloads string
	)
	fs.IntVar(&o.table, "table", 0, "regenerate table 1, 2, 3, 5, or 6")
	fs.IntVar(&o.figure, "figure", 0, "regenerate figure 1 or 5")
	fs.BoolVar(&o.ablations, "ablations", false, "run the design-choice ablations")
	fs.BoolVar(&o.shsp, "shsp", false, "compare against the SHSP prior-work baseline (§VII.C)")
	fs.BoolVar(&o.sens, "sensitivity", false, "sweep the cost-model calibration and check robustness")
	fs.StringVar(&o.validate, "validate", "", "validate the Table IV model on a workload")
	fs.BoolVar(&o.all, "all", false, "regenerate everything")
	fs.StringVar(&workloads, "workloads", "", "comma-separated workload subset (default: all)")
	fs.StringVar(&o.csvDir, "csv", "", "also write figure5.csv / table6.csv into this directory")
	fs.StringVar(&o.metrics, "metrics", "", "run the adaptation-curve experiment and write its epoch series to this file (.csv for CSV, else JSON)")
	fs.StringVar(&o.walkTrace, "walk-trace", "", "with -metrics: also write the last page walks as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if workloads != "" {
		o.workloads = strings.Split(workloads, ",")
	}
	return o, nil
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// section is one selected experiment: a heading and the work that prints
// it.
type section struct {
	name string
	fn   func() error
}

// run executes the command line and returns the process exit status: 0 on
// success, 1 when an experiment fails, 2 for a usage error, 130 when
// interrupted. ctx's cancellation acts like SIGINT.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "paperbench:", err)
		}
		return 2
	}
	env := opts.env
	ctx, stop, err := env.Start(ctx, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 2
	}
	defer stop()
	scfg := env.SweepConfig(stderr)
	names := opts.workloads

	var sections []section
	add := func(name string, fn func() error) {
		sections = append(sections, section{name, fn})
	}

	if opts.all || opts.table == 1 {
		add("Table I", func() error {
			// Each sweep driver returns whatever rows completed even on
			// error (-fail collect keeps going past bad cells), so the
			// partial table always prints before the failure is reported.
			rows, err := experiments.TableISweep(ctx, scfg)
			if len(rows) > 0 {
				fmt.Fprint(stdout, experiments.FormatTableI(rows))
			}
			return err
		})
	}
	if opts.all || opts.table == 3 {
		add("Table III (system configuration)", func() error {
			fmt.Fprint(stdout, experiments.TableIII())
			return nil
		})
	}
	if opts.all || opts.table == 5 {
		add("Table V (workload characteristics)", func() error {
			rows, err := experiments.TableVSweep(ctx, scfg, env.Accesses, env.Seed)
			if len(rows) > 0 {
				fmt.Fprint(stdout, experiments.FormatTableV(rows))
			}
			return err
		})
	}
	if opts.all || opts.table == 2 {
		add("Table II / Figure 3", func() error {
			rows, err := experiments.TableIISweep(ctx, scfg)
			if len(rows) > 0 {
				fmt.Fprint(stdout, experiments.FormatTableII(rows))
			}
			return err
		})
	}
	if opts.all || opts.figure == 1 {
		add("Figure 1 walk traces", func() error {
			traces, err := experiments.WalkTraces()
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.FormatWalkTraces(traces))
			return nil
		})
	}
	if opts.all || opts.figure == 5 {
		add("Figure 5 + headline", func() error {
			res, err := experiments.Figure5Sweep(ctx, scfg, names, env.Accesses, env.Seed)
			if err != nil {
				// Partial figure: print completed cells with failures marked,
				// skip the chart/headline/CSV derived views.
				if res != nil && len(res.Rows)+len(res.Failed) > 0 {
					fmt.Fprint(stdout, experiments.FormatFigure5(res))
				}
				return err
			}
			fmt.Fprint(stdout, experiments.FormatFigure5(res))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.FormatFigure5Chart(res))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.FormatHeadline(experiments.Headline(res)))
			if opts.csvDir != "" {
				f, err := os.Create(filepath.Join(opts.csvDir, "figure5.csv"))
				if err != nil {
					return err
				}
				defer f.Close()
				if err := experiments.WriteFigure5CSV(f, res); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", f.Name())
			}
			return nil
		})
	}
	if opts.all || opts.table == 6 {
		add("Table VI", func() error {
			rows, err := experiments.TableVISweep(ctx, scfg, names, env.Accesses, env.Seed)
			if err != nil {
				if len(rows) > 0 {
					fmt.Fprint(stdout, experiments.FormatTableVI(rows))
				}
				return err
			}
			fmt.Fprint(stdout, experiments.FormatTableVI(rows))
			if opts.csvDir != "" {
				f, err := os.Create(filepath.Join(opts.csvDir, "table6.csv"))
				if err != nil {
					return err
				}
				defer f.Close()
				if err := experiments.WriteTableVICSV(f, rows); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", f.Name())
			}
			return nil
		})
	}
	if opts.all || opts.shsp {
		add("SHSP comparison", func() error {
			rows, err := experiments.SHSPComparisonSweep(ctx, scfg, names, env.Accesses, env.Seed)
			if len(rows) > 0 {
				fmt.Fprint(stdout, experiments.FormatSHSP(rows))
			}
			return err
		})
	}
	if opts.all || opts.sens {
		add("Cost-model sensitivity", func() error {
			rows, err := experiments.SensitivitySweep(ctx, scfg, env.Accesses, env.Seed)
			if len(rows) > 0 {
				fmt.Fprint(stdout, experiments.FormatSensitivity(rows))
			}
			return err
		})
	}
	if opts.all || opts.ablations {
		add("Ablations", func() error {
			rows, err := experiments.AblationsSweep(ctx, scfg, env.Accesses/2, env.Seed)
			if err != nil {
				if len(rows) > 0 {
					fmt.Fprint(stdout, experiments.FormatAblations(rows))
				}
				return err
			}
			fmt.Fprint(stdout, experiments.FormatAblations(rows))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.FormatTrapCosts())
			return nil
		})
	}
	if opts.validate != "" || opts.all {
		wl := opts.validate
		if wl == "" {
			wl = "canneal"
		}
		add("Table IV model validation ("+wl+")", func() error {
			v, err := experiments.ValidateModelSweep(ctx, scfg, wl, env.Accesses, env.Seed)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.FormatModelValidation(v))
			return nil
		})
	}

	if opts.metrics != "" {
		add("Adaptation curve (Table I in time)", func() error {
			var ring *telemetry.EventRing
			if opts.walkTrace != "" {
				ring = telemetry.NewEventRing(0)
			}
			s, err := experiments.AdaptationCurve(env.MetricsEpoch, 0, ring)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.FormatAdaptation(s))
			if err := s.WriteFile(opts.metrics); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d epochs to %s\n", len(s.Epochs), opts.metrics)
			if ring != nil {
				if err := ring.WriteChromeTraceFile(opts.walkTrace); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %d walk events to %s (chrome://tracing)\n", len(ring.Events()), opts.walkTrace)
			}
			return nil
		})
	}

	if len(sections) == 0 {
		fmt.Fprintln(stderr, "paperbench: nothing selected; pass -all, -table N, -figure N, -ablations, -shsp, -sensitivity, -validate W, or -metrics FILE")
		return 2
	}
	for _, sec := range sections {
		fmt.Fprintf(stdout, "==> %s\n", sec.name)
		if err := sec.fn(); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "paperbench: %s: interrupted after %d completed simulations\n",
					sec.name, env.Completed())
				return 130
			}
			fmt.Fprintf(stderr, "paperbench: %s: %v\n", sec.name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
