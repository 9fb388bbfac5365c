// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VI–§VII), mapping simulator output to the same rows
// and series the paper reports. See DESIGN.md for the per-experiment index.
package experiments

import (
	"fmt"

	"agilepaging/internal/core"
	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// Options parameterizes one simulation run.
type Options struct {
	Technique walker.Mode
	PageSize  pagetable.Size
	Accesses  int
	Seed      int64

	// Warmup is the number of steady-phase accesses executed before all
	// statistics are reset, so measurements reflect steady state (the
	// paper's runs-to-completion amortize cold shadow construction the same
	// way). 0 selects Accesses/2; negative disables warmup.
	Warmup int

	// AgileStartNested enables the paper's short-lived/small-process policy
	// (§III-C): agile processes start fully nested and build shadow state
	// only once TLB-miss overhead justifies it. DefaultOptions enables it;
	// microbenchmarks that study walk structure disable it.
	AgileStartNested bool

	// UseSHSP replaces agile paging's manager with the prior-work SHSP
	// baseline (paper §VII.C): whole-process temporal switching.
	UseSHSP bool

	// Structural knobs (zero values = paper baseline).
	DisablePWC     bool
	DisableNTLB    bool
	HardwareAD     bool
	CtxSwitchCache int
	RevertPolicy   core.RevertPolicy // used when Technique is agile
	TLBScale       int               // 0 = default

	// AgileWriteThreshold overrides the Shadow⇒Nested write threshold
	// (0 = paper default of 2). The adaptation-curve experiment raises it
	// to stretch the learning window over several epochs so the sampled
	// series shows the mediated⇒direct transition.
	AgileWriteThreshold int

	// Optional instrumentation. Both attach at the start of the measured
	// window (after warmup). OnWalk observes every completed TLB-miss walk
	// (set it to a trace.MissLog's or a telemetry.EventRing's Record).
	// Metrics attaches an epoch-based telemetry recorder whose final
	// partial epoch is flushed when the run ends. Neither perturbs
	// simulated results (see TestTelemetryPurity).
	OnWalk  func(telemetry.WalkEvent)
	Metrics *telemetry.Recorder
}

// DefaultOptions returns the baseline run options for a technique and page
// size. The default run length keeps the full Figure 5 sweep in the tens of
// seconds; scale Accesses up for tighter statistics.
func DefaultOptions(tech walker.Mode, ps pagetable.Size) Options {
	return Options{
		Technique:        tech,
		PageSize:         ps,
		Accesses:         120_000,
		Seed:             42,
		RevertPolicy:     core.RevertDirtyScan,
		AgileStartNested: true,
	}
}

// warmupCount resolves the warmup policy.
func warmupCount(o Options) int {
	if o.Warmup < 0 {
		return 0
	}
	if o.Warmup == 0 {
		return o.Accesses / 2
	}
	return o.Warmup
}

// machineConfig translates Options into a cpu.Config.
func machineConfig(o Options) cpu.Config {
	cfg := cpu.DefaultConfig(o.Technique, o.PageSize)
	cfg.EnablePWC = !o.DisablePWC
	cfg.EnableNTLB = !o.DisableNTLB
	cfg.HardwareAD = o.HardwareAD
	cfg.CtxSwitchCache = o.CtxSwitchCache
	cfg.Agile.Revert = o.RevertPolicy
	if o.AgileWriteThreshold > 0 {
		cfg.Agile.WriteThreshold = o.AgileWriteThreshold
	}
	if o.UseSHSP {
		cfg.UseSHSP = true
		cfg.SHSP = core.DefaultSHSP()
	}
	if o.AgileStartNested {
		cfg.Agile.StartNested = true
		cfg.Agile.StartDelayCycles = 500_000
		cfg.Agile.MissOverheadThreshold = 0.06
	}
	if o.TLBScale > 0 {
		cfg.TLBScale = o.TLBScale
	}
	return cfg
}

// instrumented reports whether o attaches an observer (walk observer or
// telemetry recorder). Instrumented runs must simulate for real every time
// — their value is the observer's side effects, which a cached report
// cannot replay — so they bypass the report cache entirely.
func instrumented(o Options) bool {
	return o.OnWalk != nil || o.Metrics != nil
}

// cellKey derives the canonical report-cache key for one simulation cell:
// the machine configuration as the run will actually use it (after the
// one-core-per-thread bump runCell applies) plus the stream identity and
// warmup split. Keep this in lockstep with runCell.
func cellKey(prof workload.Profile, cfg cpu.Config, o Options) string {
	if prof.Threads > cfg.Cores {
		cfg.Cores = prof.Threads
	}
	warm := warmupCount(o)
	return repcache.KeyFor(cfg, prof, warm+o.Accesses, warm, o.Seed)
}

// CellKey returns the canonical content key of the simulation cell
// (workload, o) — the key RunProfile memoizes its report under — and
// whether the cell is memoizable at all. Instrumented cells (walk observer,
// telemetry) and unknown workloads report false: they never enter
// the cache. The facade uses it as its sweep job-key suffix.
func CellKey(name string, o Options) (string, bool) {
	if instrumented(o) {
		return "", false
	}
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return "", false
	}
	return cellKey(prof, machineConfig(o), o), true
}

// RunProfile simulates one named workload under the given options and
// returns the measurement report.
func RunProfile(name string, o Options) (cpu.Report, error) {
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return cpu.Report{}, fmt.Errorf("experiments: unknown workload %q", name)
	}
	return runScaled(prof, machineConfig(o), o)
}

// runScaled is RunProfile with an explicit machine configuration (the
// sensitivity sweep perturbs cost-model fields before running). It is the
// funnel every profile-based cell goes through, and therefore where report
// memoization happens: an uninstrumented cell asks the report cache first
// and simulates only on a miss, so a cell revisited by a later experiment
// (or a concurrent sweep job, via singleflight) costs a map lookup instead
// of a simulation. The machine is a pure function of (cfg, stream), pinned
// by the golden and equivalence tests, so the cached report is bit-identical
// to re-running. Instrumented runs simulate unconditionally.
func runScaled(prof workload.Profile, cfg cpu.Config, o Options) (cpu.Report, error) {
	if instrumented(o) {
		return runCell(prof, cfg, o)
	}
	return repcache.Do(cellKey(prof, cfg, o), func() (cpu.Report, error) {
		return runCell(prof, cfg, o)
	})
}

// runCell executes one simulation cell for real.
func runCell(prof workload.Profile, cfg cpu.Config, o Options) (cpu.Report, error) {
	if prof.Threads > cfg.Cores {
		// Multithreaded workloads get one core per thread (private TLBs,
		// shared address space), as on the paper's 24-vCPU machine.
		cfg.Cores = prof.Threads
	}
	// Sweeps revisit a handful of geometries thousands of times; acquiring
	// from the machine pool replaces full stack construction with an
	// allocation-free Reset on repeat visits (see internal/cpu/pool.go).
	m, err := cpu.AcquireMachine(cfg)
	if err != nil {
		return cpu.Report{}, err
	}
	rep, err := runStream(m, prof, o)
	if err == nil {
		// Only clean runs recycle; a failed run's machine state is suspect.
		cpu.ReleaseMachine(m)
	}
	return rep, err
}

// runStream replays the shared op stream for (prof, o) on m: warmup ops,
// measurement reset, measured ops, telemetry flush. Every technique and
// sweep cell asking for the same (profile, page size, accesses, seed)
// replays one cached packed stream (workload.SharedStream), so stream
// generation is paid once per sweep instead of once per run. Consumption
// is chunked: decoded chunks feed the machine's batched fast path through
// one reusable buffer, and — because SharedStream publishes chunks as the
// generator produces them — the head of a cold stream executes while its
// tail is still generating. The warmup/measure split lands exactly after
// the warm-th OpAccess, wherever in a chunk that falls (pinned by the
// golden test).
func runStream(m *cpu.Machine, prof workload.Profile, o Options) (cpu.Report, error) {
	warm := warmupCount(o)
	stream := workload.SharedStream(prof, o.PageSize, warm+o.Accesses, o.Seed)
	r := stream.Reader()
	defer r.Close()
	fail := func(err error) (cpu.Report, error) {
		return cpu.Report{}, fmt.Errorf("experiments: %s/%v/%v: %w", prof.Name, o.Technique, o.PageSize, err)
	}
	if warm <= 0 {
		attachObservers(m, o)
	}
	base, pending := 0, warm
	for pending > 0 {
		ops, ok := r.Next()
		if !ok {
			// Stream shorter than the warmup window: everything above was
			// warmup (the old split == Len() case).
			break
		}
		idx, seen := splitAfterAccesses(ops, pending)
		if seen < pending {
			pending -= seen
			if err := m.RunOps(ops, base); err != nil {
				return fail(err)
			}
			base += len(ops)
			continue
		}
		if err := m.RunOps(ops[:idx], base); err != nil {
			return fail(err)
		}
		pending = 0
		// End of warmup: measure steady state only. Observers attach here
		// so traces cover the measured window.
		m.ResetMeasurement()
		attachObservers(m, o)
		if err := m.RunOps(ops[idx:], base+idx); err != nil {
			return fail(err)
		}
		base += len(ops)
	}
	if pending > 0 {
		m.ResetMeasurement()
		attachObservers(m, o)
	}
	if err := m.RunChunks(r.Next, base); err != nil {
		return fail(err)
	}
	m.FlushTelemetry()
	return m.Report(prof.Name), nil
}

// splitAfterAccesses returns the index just past the n-th OpAccess in ops
// and the number of accesses seen (seen == n when the boundary lies within
// the chunk; otherwise idx == len(ops)).
func splitAfterAccesses(ops []workload.Op, n int) (idx, seen int) {
	for i := range ops {
		if ops[i].Kind == workload.OpAccess {
			seen++
			if seen == n {
				return i + 1, seen
			}
		}
	}
	return len(ops), seen
}

// RunOps simulates a fixed op stream (microbenchmarks).
func RunOps(name string, ops []workload.Op, o Options) (cpu.Report, *cpu.Machine, error) {
	m, err := cpu.New(machineConfig(o))
	if err != nil {
		return cpu.Report{}, nil, err
	}
	attachObservers(m, o)
	if err := m.RunOps(ops, 0); err != nil {
		return cpu.Report{}, nil, err
	}
	m.FlushTelemetry()
	return m.Report(name), m, nil
}

func attachObservers(m *cpu.Machine, o Options) {
	m.SetWalkObserver(o.OnWalk)
	m.SetTelemetry(o.Metrics)
}

// Techniques lists the four configurations of Figure 5 in paper order.
// It returns a fresh slice each call so concurrent sweep jobs can never
// observe a caller's mutation (the drivers run on the sweep worker pool).
func Techniques() []walker.Mode {
	return []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile}
}

// PageSizes lists the two page-size policies of Figure 5. Like Techniques
// it returns a fresh slice per call.
func PageSizes() []pagetable.Size {
	return []pagetable.Size{pagetable.Size4K, pagetable.Size2M}
}
