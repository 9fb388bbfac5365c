// Package runenv is the run environment the command-line tools share: the
// flags every simulation CLI takes (run size, seed, parallelism, error
// policy, progress, profiles, the persistent report cache, telemetry
// epochs), the start-up that applies them, and the cache-statistics
// epilogue.
//
// The stores the environment reports on — the workload stream memo, the
// report memo and the machine pool — stay process-wide with fixed budgets
// (workload.DefaultStreamCacheBytes, repcache.DefaultBudgetBytes,
// cpu.DefaultMachinePoolCapacity), so the library facade and the
// experiment drivers reach them without an environment argument. Only the
// disk tier's directory is a setting, because it names a place on the
// user's file system.
package runenv

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"

	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/workload"
)

// Env holds the parsed shared flags of one CLI invocation.
type Env struct {
	Accesses       int
	Seed           int64
	Parallel       int
	Fail           string
	Progress       bool
	CPUProfile     string
	MemProfile     string
	ReportCacheDir string
	MetricsEpoch   int

	// completed counts simulations finished by sweeps built from
	// SweepConfig, for the interrupt report.
	completed atomic.Int64
}

// Register defines the shared flags on fs and returns the Env they parse
// into.
func Register(fs *flag.FlagSet) *Env {
	e := &Env{}
	fs.IntVar(&e.Accesses, "accesses", 120_000, "measured accesses per simulation")
	fs.Int64Var(&e.Seed, "seed", 42, "random seed")
	fs.IntVar(&e.Parallel, "parallel", 0, "simulations to run concurrently (0 = one per CPU, 1 = serial)")
	fs.StringVar(&e.Fail, "fail", "fast", "error policy: 'fast' stops at the first failed cell, 'collect' runs every cell and reports all failures")
	fs.BoolVar(&e.Progress, "progress", false, "report progress and, on exit, cache statistics on stderr")
	fs.StringVar(&e.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&e.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&e.ReportCacheDir, "report-cache-dir", "", "persist simulation reports in this directory and reuse them across runs")
	fs.IntVar(&e.MetricsEpoch, "metrics-epoch", 2000, "telemetry sampling interval in accesses for -metrics")
	return e
}

// Start validates -fail, applies -report-cache-dir, starts the profiles
// and installs the SIGINT/SIGTERM handler. The returned context is
// canceled by the first signal: in-flight simulations finish and no new
// ones start; the handler is then released, so a second signal kills the
// process the default way.
//
// The stop function must run on every exit path, errors included. It
// releases the handler, finishes the CPU profile, writes the heap profile,
// and prints the cache statistics to stderr when -progress was given or
// the run was interrupted.
func (e *Env) Start(parent context.Context, stderr io.Writer) (context.Context, func(), error) {
	if e.Fail != "fast" && e.Fail != "collect" {
		return nil, nil, fmt.Errorf("-fail %q: want 'fast' or 'collect'", e.Fail)
	}
	repcache.SetDir(e.ReportCacheDir)
	stopProfiles, err := startProfiles(e.CPUProfile, e.MemProfile, stderr)
	if err != nil {
		return nil, nil, err
	}
	ctx, stopSignals := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stopSignals()
	}()
	stop := func() {
		interrupted := ctx.Err() != nil
		stopSignals()
		stopProfiles()
		if e.Progress || interrupted {
			e.printCacheStats(stderr)
		}
	}
	return ctx, stop, nil
}

// CollectAll reports whether -fail collect was given.
func (e *Env) CollectAll() bool { return e.Fail == "collect" }

// SweepConfig builds the sweep configuration for the requested worker
// count and error policy. OnProgress is always installed to feed the
// Completed counter; it prints a stderr line per finished simulation only
// under -progress.
func (e *Env) SweepConfig(stderr io.Writer) sweep.Config {
	cfg := sweep.Config{Workers: e.Parallel}
	cfg.OnProgress = func(p sweep.Progress) {
		e.completed.Add(1)
		if e.Progress {
			fmt.Fprintf(stderr, "  [%d/%d] %s (%.2fs)\n", p.Done, p.Total, p.Key, p.Elapsed.Seconds())
		}
	}
	if e.CollectAll() {
		cfg.ErrorPolicy = sweep.CollectAll
	}
	return cfg
}

// Completed reports how many simulations the sweeps built from SweepConfig
// have finished.
func (e *Env) Completed() int64 { return e.completed.Load() }

// startProfiles begins CPU profiling (when cpuPath is non-empty) and returns
// a stop function that finishes the CPU profile and writes the heap profile
// (when memPath is non-empty).
func startProfiles(cpuPath, memPath string, stderr io.Writer) (func(), error) {
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
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(stderr, "-cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(stderr, "-memprofile:", err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printCacheStats writes the machine-pool and cache summaries.
func (e *Env) printCacheStats(w io.Writer) {
	hits, misses, retired, idle := cpu.MachinePoolStats()
	fmt.Fprintf(w, "machine pool: %d reused, %d built, %d retired, %d idle\n", hits, misses, retired, idle)
	fmt.Fprint(w, formatStreamCacheStats(workload.StreamCacheInfo()))
	fmt.Fprint(w, formatReportCacheStats(repcache.Info(), e.ReportCacheDir != ""))
}

// formatStreamCacheStats renders the stream-cache summary line.
func formatStreamCacheStats(info workload.StreamCacheSnapshot) string {
	return fmt.Sprintf("stream cache: %d hits, %d generated, %d streams, %.1f MiB packed\n",
		info.Hits, info.Misses, info.Streams, float64(info.Bytes)/(1<<20))
}

// formatReportCacheStats renders the report-cache summary line(s). The disk
// line appears only when -report-cache-dir was given.
func formatReportCacheStats(info repcache.Snapshot, disk bool) string {
	out := fmt.Sprintf("report cache: %d hits, %d simulated, %d deduped, %d reports\n",
		info.Hits, info.Misses, info.Deduped, info.Reports)
	if disk {
		out += fmt.Sprintf("report disk cache: %d loaded, %d simulated, %d write errors\n",
			info.DiskHits, info.DiskMisses, info.DiskErrors)
	}
	return out
}
