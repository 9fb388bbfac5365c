// Package agilepaging is a simulator-based reproduction of "Agile Paging:
// Exceeding the Best of Nested and Shadow Paging" (Gandhi, Hill, Swift —
// ISCA 2016).
//
// It models the full memory-virtualization stack the paper studies — x86-64
// four-level page tables, a Sandy-Bridge-style TLB hierarchy, page walk
// caches, the nested/shadow/agile hardware page-walk state machines, a
// guest OS, and a VMM with shadow page table coherence and VM-exit
// accounting — and regenerates every table and figure of the paper's
// evaluation.
//
// Quick use:
//
//	res, err := agilepaging.Run(agilepaging.Config{
//	    Workload:  "dedup",
//	    Technique: agilepaging.Agile,
//	    PageSize:  agilepaging.Page4K,
//	})
//	fmt.Printf("walk %.1f%% vmm %.1f%%\n", 100*res.WalkOverhead, 100*res.VMMOverhead)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package agilepaging

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"agilepaging/internal/core"
	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// Technique selects the memory-virtualization technique (paper Table I).
type Technique int

// The four techniques the paper compares.
const (
	// Native is unvirtualized execution with a 1D page walk.
	Native Technique = iota
	// Nested is hardware 2D paging (up to 24 references per walk).
	Nested
	// Shadow is VMM-maintained shadow paging (native-speed walks, VM exits
	// on page table updates).
	Shadow
	// Agile is the paper's contribution: walks start in shadow mode and
	// may switch mid-walk to nested mode.
	Agile
)

// String names the technique.
func (t Technique) String() string { return t.mode().String() }

// MarshalJSON encodes the technique by name.
func (t Technique) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON decodes a technique name accepted by ParseTechnique, so
// Technique round-trips through JSON.
func (t *Technique) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseTechnique(s)
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}

// ParseTechnique parses a technique name as written by Technique.String,
// case insensitively, with the single-letter and "base" aliases. The CLI
// -technique flags and JSON decoding share this parser.
func ParseTechnique(s string) (Technique, error) {
	mode, err := walker.ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("agilepaging: %w", err)
	}
	switch mode {
	case walker.ModeNative:
		return Native, nil
	case walker.ModeNested:
		return Nested, nil
	case walker.ModeShadow:
		return Shadow, nil
	default:
		return Agile, nil
	}
}

func (t Technique) mode() walker.Mode {
	switch t {
	case Native:
		return walker.ModeNative
	case Nested:
		return walker.ModeNested
	case Shadow:
		return walker.ModeShadow
	case Agile:
		return walker.ModeAgile
	}
	panic(fmt.Sprintf("agilepaging: invalid technique %d", int(t)))
}

// Techniques lists all four techniques in the paper's order.
func Techniques() []Technique { return []Technique{Native, Nested, Shadow, Agile} }

// PageSize selects the page-size policy (used by the guest OS and, when
// virtualized, by the VMM's host table — the paper evaluates 4K and 2M).
type PageSize int

// Page sizes.
const (
	Page4K PageSize = iota
	Page2M
	// Page1G is supported by the table, walker, and TLB layers (paper §V
	// notes agile paging supports 1G pages); the packaged workloads only
	// sweep 4K and 2M as the paper's evaluation does, but scenarios can
	// map 1G regions.
	Page1G
)

// String names the page size.
func (p PageSize) String() string { return p.size().String() }

// MarshalJSON encodes the page size by name.
func (p PageSize) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON decodes a page-size name accepted by ParsePageSize, so
// PageSize round-trips through JSON.
func (p *PageSize) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParsePageSize(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// ParsePageSize parses a page-size name as written by PageSize.String,
// case insensitively, with "KB"/"MB"/"GB" suffix forms. The CLI -pagesize
// flags and JSON decoding share this parser.
func ParsePageSize(s string) (PageSize, error) {
	size, err := pagetable.ParseSize(s)
	if err != nil {
		return 0, fmt.Errorf("agilepaging: %w", err)
	}
	switch size {
	case pagetable.Size4K:
		return Page4K, nil
	case pagetable.Size2M:
		return Page2M, nil
	default:
		return Page1G, nil
	}
}

func (p PageSize) size() pagetable.Size {
	switch p {
	case Page4K:
		return pagetable.Size4K
	case Page2M:
		return pagetable.Size2M
	case Page1G:
		return pagetable.Size1G
	}
	panic(fmt.Sprintf("agilepaging: invalid page size %d", int(p)))
}

// RevertPolicy selects the agile Nested⇒Shadow policy (paper §III-C).
type RevertPolicy int

// Revert policies.
const (
	// RevertDirtyScan is the paper's effective dirty-bit-scanning policy
	// (the default).
	RevertDirtyScan RevertPolicy = iota
	// RevertReset is the simple periodic full reset.
	RevertReset
	// RevertNone never converts nested parts back.
	RevertNone
)

// String names the policy as the paper describes it.
func (p RevertPolicy) String() string { return p.core().String() }

// MarshalJSON encodes the policy by name.
func (p RevertPolicy) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON decodes a policy name accepted by ParseRevertPolicy, so
// RevertPolicy round-trips through JSON.
func (p *RevertPolicy) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseRevertPolicy(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// ParseRevertPolicy parses a policy name as written by RevertPolicy.String
// ("none", "reset", "dirty-scan"), case insensitively.
func ParseRevertPolicy(s string) (RevertPolicy, error) {
	policy, err := core.ParseRevertPolicy(s)
	if err != nil {
		return 0, fmt.Errorf("agilepaging: %w", err)
	}
	// The facade orders the enum by preference (dirty-scan first, as the
	// paper's default); map explicitly rather than by value.
	switch policy {
	case core.RevertNone:
		return RevertNone, nil
	case core.RevertReset:
		return RevertReset, nil
	default:
		return RevertDirtyScan, nil
	}
}

func (p RevertPolicy) core() core.RevertPolicy {
	switch p {
	case RevertDirtyScan:
		return core.RevertDirtyScan
	case RevertReset:
		return core.RevertReset
	case RevertNone:
		return core.RevertNone
	}
	panic(fmt.Sprintf("agilepaging: invalid revert policy %d", int(p)))
}

// Config parameterizes one simulation run.
type Config struct {
	// Workload names one of the paper's eight evaluation workloads; see
	// Workloads().
	Workload string
	// Technique and PageSize select the configuration (a Figure 5 bar).
	Technique Technique
	PageSize  PageSize

	// Accesses is the number of measured steady-phase memory accesses.
	//
	// Zero-value semantics: 0 selects the default of 120000 — there is no
	// way to request a zero-access run. Negative values are invalid;
	// RunAll rejects them up front and Run fails inside the simulator.
	Accesses int
	// Warmup overrides the pre-measurement warmup length. It is
	// sign-encoded: 0 selects the default of Accesses/2, a positive value
	// is used as given, and a NEGATIVE value (any) disables warmup
	// entirely — there is no way to request a literal zero-length warmup
	// except by passing a negative number.
	Warmup int
	// Seed makes the run reproducible.
	//
	// Zero-value semantics: Seed 0 silently becomes the default seed 42 —
	// a literal zero seed cannot be requested. Pass any other value for a
	// distinct deterministic run.
	Seed int64

	// DisableMMUCaches removes the page walk caches and nested TLB,
	// exposing architectural walk costs (paper Table VI's setting).
	DisableMMUCaches bool
	// HardwareAD enables the paper's §IV trap-free accessed/dirty-bit
	// propagation.
	HardwareAD bool
	// CtxSwitchCacheEntries sizes the §IV context-switch pointer cache
	// (0 = disabled).
	CtxSwitchCacheEntries int
	// Revert selects the agile Nested⇒Shadow policy.
	Revert RevertPolicy
	// DisableStartNested turns off the short-lived/small-process policy
	// (§III-C) under which agile processes begin fully nested.
	DisableStartNested bool
	// SHSPBaseline replaces the agile manager with the prior-work SHSP
	// controller (paper §VII.C): whole-process temporal switching between
	// nested and shadow paging. Requires Technique == Agile (it uses the
	// same mechanisms).
	SHSPBaseline bool
}

// Result is the measurement record of one run.
type Result struct {
	Workload  string
	Technique Technique
	PageSize  PageSize

	// Execution-time overhead relative to ideal (translation-free)
	// execution, decomposed as in the paper's Figure 5.
	WalkOverhead  float64
	VMMOverhead   float64
	TotalOverhead float64

	// Raw counters.
	Accesses       uint64
	TLBMisses      uint64
	WalkRefs       uint64
	VMExits        uint64
	GuestFaults    uint64
	AvgRefsPerMiss float64
	RefsP50        int
	RefsP95        int
	MPKI           float64

	// Agile decision counters (zero unless Technique == Agile).
	SwitchesToNested uint64
	SwitchesToShadow uint64
}

// Workloads lists the available workload names (paper Table V).
func Workloads() []string { return workload.Names() }

// options translates the facade config into the experiments layer's run
// options. Run and RunAllContext share this so a Config always maps to the
// same simulation cell however it is submitted.
func (cfg Config) options() experiments.Options {
	o := experiments.DefaultOptions(cfg.Technique.mode(), cfg.PageSize.size())
	if cfg.Accesses > 0 {
		o.Accesses = cfg.Accesses
	}
	if cfg.Warmup != 0 {
		o.Warmup = cfg.Warmup
	}
	if cfg.Seed != 0 {
		o.Seed = cfg.Seed
	}
	o.DisablePWC = cfg.DisableMMUCaches
	o.DisableNTLB = cfg.DisableMMUCaches
	o.HardwareAD = cfg.HardwareAD
	o.CtxSwitchCache = cfg.CtxSwitchCacheEntries
	o.RevertPolicy = cfg.Revert.core()
	o.AgileStartNested = !cfg.DisableStartNested
	o.UseSHSP = cfg.SHSPBaseline
	return o
}

// Run simulates one workload under one configuration.
func Run(cfg Config) (Result, error) {
	if cfg.Workload == "" {
		return Result{}, fmt.Errorf("agilepaging: no workload named; pick one of %v", Workloads())
	}
	rep, err := experiments.RunProfile(cfg.Workload, cfg.options())
	if err != nil {
		return Result{}, err
	}
	return newResult(cfg.Workload, cfg.Technique, cfg.PageSize, rep), nil
}

// newResult converts a machine report into the facade's result record.
// Run and Scenario.Run share it so both report the same fields the same
// way.
func newResult(workload string, tech Technique, ps PageSize, rep cpu.Report) Result {
	return Result{
		Workload:         workload,
		Technique:        tech,
		PageSize:         ps,
		WalkOverhead:     rep.WalkOverhead(),
		VMMOverhead:      rep.VMMOverhead(),
		TotalOverhead:    rep.TotalOverhead(),
		Accesses:         rep.Accesses,
		TLBMisses:        rep.TLBMisses,
		WalkRefs:         rep.WalkRefs,
		VMExits:          rep.VMExitTotal(),
		GuestFaults:      rep.GuestPageFaults,
		AvgRefsPerMiss:   rep.RefsPerMiss(),
		RefsP50:          rep.RefsP50,
		RefsP95:          rep.RefsP95,
		MPKI:             rep.MPKI(),
		SwitchesToNested: rep.SwitchesToNested,
		SwitchesToShadow: rep.SwitchesToShadow,
	}
}

// validateConfigs rejects obviously bad specs before any simulation starts,
// reporting every offending job index in a single error.
func validateConfigs(cfgs []Config) error {
	var bad []string
	for i, cfg := range cfgs {
		switch {
		case cfg.Workload == "":
			bad = append(bad, fmt.Sprintf("job %d: empty workload (pick one of %v)", i, Workloads()))
		case cfg.Accesses < 0:
			bad = append(bad, fmt.Sprintf("job %d (%s): negative accesses %d", i, cfg.Workload, cfg.Accesses))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("agilepaging: invalid configs: %s", strings.Join(bad, "; "))
	}
	return nil
}

// RunAllOptions controls how a batch executes: worker count and error
// policy. The zero value matches historical RunAll behavior (one worker per
// CPU, fail fast).
type RunAllOptions struct {
	// Workers bounds the worker pool; <= 0 selects one worker per CPU.
	Workers int
	// CollectAll runs every config even after failures and returns a
	// joined error attributing each failed cell; the default fails fast.
	CollectAll bool
}

// sweepConfig translates the batch options into the sweep layer's config.
func (o RunAllOptions) sweepConfig() sweep.Config {
	cfg := sweep.Config{Workers: o.Workers}
	if o.CollectAll {
		cfg.ErrorPolicy = sweep.CollectAll
	}
	return cfg
}

// RunAll simulates every config concurrently (one worker per CPU) and
// returns the results in the order the configs were given — identical to
// running each through Run serially. Invalid specs (empty Workload,
// negative Accesses) are rejected up front, before any simulation runs,
// with one error naming every bad job index.
func RunAll(cfgs []Config) ([]Result, error) {
	return RunAllContext(context.Background(), 0, cfgs)
}

// RunAllContext is RunAll with explicit cancellation and worker-count
// control. workers <= 0 selects one worker per CPU. On failure the first
// observed error is returned, wrapped with the failing job's index and
// key; use RunAllWith for fault-tolerant batches.
func RunAllContext(ctx context.Context, workers int, cfgs []Config) ([]Result, error) {
	results, _, err := RunAllWith(ctx, RunAllOptions{Workers: workers}, cfgs)
	return results, err
}

// RunAllWith is RunAllContext with an explicit execution policy. The
// results slice always has len(cfgs) slots in declaration order; completed
// reports which slots hold real measurements (the rest are zero Results —
// failed or, after a cancellation or fail-fast stop, never ran). Under
// CollectAll every config executes despite failures and the returned error
// joins one attributed entry per failed cell, so healthy cells of a long
// campaign survive a bad one.
func RunAllWith(ctx context.Context, opts RunAllOptions, cfgs []Config) (results []Result, completed []bool, err error) {
	if err := validateConfigs(cfgs); err != nil {
		return nil, nil, err
	}
	jobs := make([]sweep.Job[Config], len(cfgs))
	for i, cfg := range cfgs {
		o := cfg.options()
		// The cell key covers every result-determining input — two configs
		// differing only in Accesses or Seed (which the readable prefix
		// cannot show) get distinct keys, and two spellings of the same cell
		// (say Seed 0 versus the default 42) share one. Duplicate configs in
		// one list run as separate jobs and simulate once through the report
		// memo.
		cell, cacheable := experiments.CellKey(cfg.Workload, o)
		key := fmt.Sprintf("%s/%s/%s", cfg.Workload, cfg.PageSize, cfg.Technique)
		if cacheable {
			key = fmt.Sprintf("%s#%.8s", key, cell)
		}
		jobs[i] = sweep.Job[Config]{
			Key:      key,
			Workload: cfg.Workload,
			Options:  cfg,
		}
	}
	out := sweep.Execute(ctx, opts.sweepConfig(), jobs,
		func(_ context.Context, j sweep.Job[Config]) (Result, error) {
			return Run(j.Options)
		})
	return out.Results, out.Completed, out.Err
}

// Compare runs one workload under every technique at the given page size
// (concurrently, one worker per CPU) and returns the results in
// Techniques() order.
func Compare(workloadName string, ps PageSize, accesses int, seed int64) ([]Result, error) {
	return RunAllContext(context.Background(), 0, compareConfigs(workloadName, ps, accesses, seed))
}

// CompareWith is Compare with an explicit execution policy; see RunAllWith
// for the completed-mask contract.
func CompareWith(ctx context.Context, opts RunAllOptions, workloadName string, ps PageSize, accesses int, seed int64) ([]Result, []bool, error) {
	return RunAllWith(ctx, opts, compareConfigs(workloadName, ps, accesses, seed))
}

// compareConfigs builds the per-technique configs Compare runs.
func compareConfigs(workloadName string, ps PageSize, accesses int, seed int64) []Config {
	cfgs := make([]Config, 0, 4)
	for _, tech := range Techniques() {
		cfgs = append(cfgs, Config{
			Workload: workloadName, Technique: tech, PageSize: ps,
			Accesses: accesses, Seed: seed,
		})
	}
	return cfgs
}
