// Command perfbench is the repository benchmark: it times the simulator
// end to end on three workloads, checks every result it produces, and in a
// separate traced run splits CPU time across the simulator's layers.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload figure5-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for the
// workloads and the metrics.
//
// The program imports only the root agilepaging package and the standard
// library (perfbench_test.go enforces it), so refactors of the simulator's
// internals never need to edit the benchmark.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"agilepaging"
)

// The three workloads.
const (
	figure5Cold = "figure5-cold"
	churn       = "churn"
	rerunWarm   = "rerun-warm"
)

var workloadNames = []string{figure5Cold, churn, rerunWarm}

// buildDir holds the traced run's CPU profiles while it runs. It is the
// wrapper's build directory, relative to the repository root.
const buildDir = ".bench_build"

// rerunProcesses is how many processes a rerun-warm run sets up in; each
// simulates the campaign once (the set-up) and then re-runs it warm.
const rerunProcesses = 3

// recordedDigests holds, per workload and seed, the digest of the results a
// pass must produce. Regenerate it with -record after a change that is
// meant to alter simulation results.
//
//go:embed digests.json
var recordedDigests []byte

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 0, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "measured time per run, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run that prints the per-layer metrics")
		record   = flag.Int("record", 0, "print the result digests of seeds 0..n-1 as JSON and exit")
		child    = flag.Bool("child", false, "run one pass process (used by the benchmark itself)")
		slice    = flag.Float64("slice", 0, "child: seconds of warm passes (rerun-warm)")
		profile  = flag.String("profile", "", "child: write a CPU profile of the traced passes here")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	var err error
	switch {
	case *record > 0:
		err = recordDigests(os.Stdout, *record)
	case !slices.Contains(workloadNames, *workload):
		err = fmt.Errorf("unknown workload %q; pick one of %s", *workload, strings.Join(workloadNames, ", "))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case !(*seconds > 0):
		err = fmt.Errorf("-seconds must be positive, not %v", *seconds)
	case *child:
		err = runChild(os.Stdout, *workload, *seed, *slice, *profile)
	default:
		err = runBenchmark(os.Stdout, *workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// passRecord measures one pass: one Figure 5 sweep, one churn replay under
// every technique, or one warm campaign re-run.
type passRecord struct {
	WallNs      int64   `json:"wall_ns"`
	CellNs      []int64 `json:"cell_ns"`
	Cells       int     `json:"cells"`
	Failed      int     `json:"failed"`
	SimAccesses uint64  `json:"sim_accesses"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	GCCycles    uint64  `json:"gc_cycles"`
	GCCPU       float64 `json:"gc_cpu_s"`
	UsedCPU     float64 `json:"used_cpu_s"`
	Traced      bool    `json:"traced"`
	Digest      string  `json:"digest"`
}

// events are simulated-machine counters summed over one pass's results.
type events struct {
	TLBMisses   uint64  `json:"tlb_misses"`
	WalkRefs    uint64  `json:"walk_refs"`
	VMExits     uint64  `json:"vm_exits"`
	GuestFaults uint64  `json:"guest_faults"`
	ToNested    uint64  `json:"to_nested"`
	ToShadow    uint64  `json:"to_shadow"`
	MPKI        float64 `json:"mpki"`
}

// childReport is what one pass process prints as its last line.
type childReport struct {
	Passes []passRecord `json:"passes"`
	// Figure5Digest is rerun-warm's digest of the Figure 5 prefix of its
	// set-up results; it must equal figure5-cold's digest for the seed.
	Figure5Digest string   `json:"figure5_digest,omitempty"`
	Events        events   `json:"events"`
	VsBestPct     float64  `json:"vs_best_pct"`
	VsNativePct   float64  `json:"vs_native_pct"`
	Errors        []string `json:"errors,omitempty"`
}

// runChild is one pass process: it sets the workload up from empty caches,
// prints "ready", runs its passes and prints a childReport.
func runChild(w io.Writer, workload string, seed int64, slice float64, profile string) error {
	var rep childReport
	note := func(msg string) {
		if len(rep.Errors) < 8 {
			rep.Errors = append(rep.Errors, msg)
		}
	}
	// ready ends the set-up: its garbage is collected, so every pass starts
	// from the same heap, and the parent stops the set-up clock.
	ready := func() {
		runtime.GC()
		fmt.Fprintln(w, "ready")
	}
	prof := &profiler{path: profile}

	switch workload {
	case figure5Cold:
		cfgs := figure5Configs(seed)
		ready()
		results, errs, pass, err := timeCells(prof, len(cfgs), func(i int) (agilepaging.Result, error) {
			return agilepaging.Run(cfgs[i])
		})
		if err != nil {
			return err
		}
		pass.SimAccesses = simulatedAccesses(cfgs, results)
		pass.Failed = checkConfigs(cfgs, results, errs, note)
		rep.Passes = append(rep.Passes, pass)
		rep.Events = sumEvents(results)
		rep.VsBestPct, rep.VsNativePct = figure5Headline(results)

	case churn:
		script, accesses := churnScript(seed)
		ready()
		results, errs, pass, err := timeCells(prof, len(churnTechniques), func(i int) (agilepaging.Result, error) {
			return script.Run(agilepaging.ScenarioConfig{Technique: churnTechniques[i], PageSize: agilepaging.Page4K})
		})
		if err != nil {
			return err
		}
		pass.SimAccesses = uint64(accesses * len(churnTechniques))
		for i, tech := range churnTechniques {
			msg := ""
			if errs[i] != nil {
				msg = fmt.Sprintf("churn/%s: %v", tech, errs[i])
			} else {
				msg = checkResult(results[i], "scenario", tech, agilepaging.Page4K, uint64(accesses))
			}
			if msg != "" {
				note(msg)
				pass.Failed++
			}
		}
		rep.Passes = append(rep.Passes, pass)
		rep.Events = sumEvents(results)
		vsBest, vsNative := headline(results[0], results[1], results[2], results[3])
		rep.VsBestPct, rep.VsNativePct = 100*vsBest, 100*vsNative

	case rerunWarm:
		cfgs := campaignConfigs(seed)
		opts := agilepaging.RunAllOptions{Workers: runtime.NumCPU(), CollectAll: true}
		setup, _, err := agilepaging.RunAllWith(context.Background(), opts, cfgs)
		if err != nil {
			return fmt.Errorf("rerun-warm set-up: %w", err)
		}
		if n := checkConfigs(cfgs, setup, make([]error, len(cfgs)), note); n > 0 {
			return fmt.Errorf("rerun-warm set-up: %d results fail their checks: %s", n, strings.Join(rep.Errors, "; "))
		}
		fig5 := setup[:len(figure5Configs(seed))]
		rep.Figure5Digest = digest(fig5)
		rep.Events = sumEvents(setup)
		rep.VsBestPct, rep.VsNativePct = figure5Headline(fig5)
		ready()

		// Passes run for the slice; a traced process profiles the second
		// half of it.
		want := digest(setup)
		start := time.Now()
		end := time.Duration(slice * float64(time.Second))
		traceAt := end
		if profile != "" {
			traceAt /= 2
		}
		for time.Since(start) < end || len(rep.Passes) == 0 {
			traced := profile != "" && time.Since(start) >= traceAt
			if traced {
				if err := prof.start(); err != nil {
					return err
				}
			}
			var results []agilepaging.Result
			var done []bool
			var runErr error
			pass := measure(func() {
				results, done, runErr = agilepaging.RunAllWith(context.Background(), opts, cfgs)
			})
			pass.Traced = traced
			pass.Cells = len(cfgs)
			pass.SimAccesses = simulatedAccesses(cfgs, setup)
			pass.CellNs = []int64{pass.WallNs / int64(len(cfgs))}
			pass.Digest = digest(results)
			if runErr != nil {
				note(fmt.Sprintf("rerun-warm pass: %v", runErr))
			}
			if pass.Digest != want {
				for i := range cfgs {
					if i >= len(results) || !done[i] || digest(results[i:i+1]) != digest(setup[i:i+1]) {
						pass.Failed++
					}
				}
				note(fmt.Sprintf("rerun-warm pass: %d served results differ from the set-up results", pass.Failed))
			}
			rep.Passes = append(rep.Passes, pass)
		}
		if err := prof.stop(); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(rep)
}

// profiler writes a CPU profile of the traced part of a pass process to
// path; with no path it does nothing.
type profiler struct {
	path string
	f    *os.File
}

func (p *profiler) start() error {
	if p.path == "" || p.f != nil {
		return nil
	}
	f, err := os.Create(p.path)
	if err != nil {
		return err
	}
	p.f = f
	return pprof.StartCPUProfile(f)
}

func (p *profiler) stop() error {
	if p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return p.f.Close()
}

// timeCells runs n cells one at a time as one pass, timing each, under
// the profiler when it has a path.
func timeCells(prof *profiler, n int, run func(i int) (agilepaging.Result, error)) ([]agilepaging.Result, []error, passRecord, error) {
	results := make([]agilepaging.Result, n)
	errs := make([]error, n)
	cellNs := make([]int64, n)
	if err := prof.start(); err != nil {
		return nil, nil, passRecord{}, err
	}
	pass := measure(func() {
		for i := range results {
			t0 := time.Now()
			results[i], errs[i] = run(i)
			cellNs[i] = time.Since(t0).Nanoseconds()
		}
	})
	if err := prof.stop(); err != nil {
		return nil, nil, passRecord{}, err
	}
	pass.Traced = prof.path != ""
	pass.CellNs = cellNs
	pass.Cells = n
	pass.Digest = digest(results)
	return results, errs, pass, nil
}

// checkConfigs checks each result against its config and returns how many
// cells failed: an error, or a result that breaks an invariant.
func checkConfigs(cfgs []agilepaging.Config, results []agilepaging.Result, errs []error, note func(string)) int {
	failed := 0
	for i, cfg := range cfgs {
		msg := ""
		if errs[i] != nil {
			msg = fmt.Sprintf("%s/%s/%s: %v", cfg.Workload, cfg.PageSize, cfg.Technique, errs[i])
		} else {
			msg = checkResult(results[i], cfg.Workload, cfg.Technique, cfg.PageSize, uint64(cfg.Accesses))
		}
		if msg != "" {
			note(msg)
			failed++
		}
	}
	return failed
}

// measure times f and records what it allocated and how much the garbage
// collector ran meanwhile.
func measure(f func()) passRecord {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	read := func() (cycles uint64, gc, used float64) {
		metrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Float64(),
			samples[2].Value.Float64() - samples[3].Value.Float64()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, gc0, used0 := read()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	c1, gc1, used1 := read()
	runtime.ReadMemStats(&m1)
	return passRecord{
		WallNs:     wall.Nanoseconds(),
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		GCCycles:   c1 - c0,
		GCCPU:      gc1 - gc0,
		UsedCPU:    used1 - used0,
	}
}

func sumEvents(rs []agilepaging.Result) events {
	var e events
	for _, r := range rs {
		e.TLBMisses += r.TLBMisses
		e.WalkRefs += r.WalkRefs
		e.VMExits += r.VMExits
		e.GuestFaults += r.GuestFaults
		e.ToNested += r.SwitchesToNested
		e.ToShadow += r.SwitchesToShadow
		e.MPKI += r.MPKI / float64(len(rs))
	}
	return e
}

// childRun is one pass process as the parent saw it.
type childRun struct {
	setup  time.Duration
	rssMB  float64
	report childReport
	traced bool
}

// runDeadline bounds a whole run: a pass process still running then is
// killed, so the benchmark always exits.
const runDeadline = 170 * time.Second

// spawn runs one pass process to completion, killing it at ctx's deadline.
func spawn(ctx context.Context, workload string, seed int64, slice float64, profile string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-slice", strconv.FormatFloat(slice, 'f', -1, 64)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	run := childRun{traced: profile != ""}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	var lines []string
	for sc.Scan() {
		if sc.Text() == "ready" && run.setup == 0 {
			run.setup = time.Since(t0)
			continue
		}
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	if scanErr != nil {
		_, _ = io.Copy(io.Discard, out) // let the child finish writing before Wait
	}
	waitErr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	switch {
	case waitErr != nil:
		return run, fmt.Errorf("pass process: %w", waitErr)
	case scanErr != nil:
		return run, fmt.Errorf("pass process output: %w", scanErr)
	case run.setup == 0 || len(lines) == 0:
		return run, errors.New("pass process printed no report")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.report); err != nil {
		return run, fmt.Errorf("pass process report: %w", err)
	}
	return run, nil
}

// runBenchmark runs the workload for about seconds of measured passes in
// fresh processes and prints the metrics.
func runBenchmark(w io.Writer, workload string, seed int64, seconds float64, trace bool) error {
	profDir := ""
	if trace {
		var err error
		if err = os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		if profDir, err = os.MkdirTemp(buildDir, "perfbench-prof-"); err != nil {
			return err
		}
		defer os.RemoveAll(profDir)
	}
	profilePath := func(i int) string { return filepath.Join(profDir, fmt.Sprintf("pass-%d.pprof", i)) }

	var runs []childRun
	var spawnErrs []string
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runDeadline))
	defer cancel()
	for i := 0; ; i++ {
		slice, prof := 0.0, ""
		if workload == rerunWarm {
			slice = seconds / rerunProcesses
		}
		// A traced run alternates untraced and traced figure5-cold or churn
		// processes, so both see the same machine conditions; each
		// rerun-warm process traces the second half of its passes.
		if trace && (workload == rerunWarm || i%2 == 1) {
			prof = profilePath(i)
		}
		run, err := spawn(ctx, workload, seed, slice, prof)
		if err != nil {
			spawnErrs = append(spawnErrs, err.Error())
		}
		runs = append(runs, run)
		var walls []float64
		for _, p := range run.report.Passes {
			walls = append(walls, float64(p.WallNs)/1e6)
		}
		fmt.Fprintf(w, "pass process %d: set-up %.3f s, peak RSS %.1f MB, %d passes, median %.3f ms\n",
			i, run.setup.Seconds(), run.rssMB, len(walls), median(walls))
		done := time.Since(start) >= time.Duration(seconds*float64(time.Second)) && (!trace || i >= 1)
		if workload == rerunWarm {
			done = i+1 == rerunProcesses
		}
		if done {
			break
		}
	}

	res, err := summarize(workload, seed, runs, spawnErrs)
	if err != nil {
		return err
	}
	if trace {
		if err := addLayerMetrics(res, runs, profilePath); err != nil {
			return err
		}
	}
	return res.print(w, trace)
}
