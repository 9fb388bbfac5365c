package cpu

import (
	"bytes"
	"errors"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// smallConfig returns a machine config with modest memory for tests.
func smallConfig(t walker.Mode, ps pagetable.Size) Config {
	cfg := DefaultConfig(t, ps)
	cfg.MemBytes = 512 << 20
	cfg.GuestRAMBytes = 128 << 20
	return cfg
}

// setupOps creates process 0 with one mapped region and switches to it.
func setupOps(base, length uint64, ps pagetable.Size) []workload.Op {
	return []workload.Op{
		{Kind: workload.OpCreateProcess, PID: 0},
		{Kind: workload.OpMmap, PID: 0, VA: base, Len: length, Size: ps},
		{Kind: workload.OpPopulate, PID: 0, VA: base},
		{Kind: workload.OpCtxSwitch, PID: 0},
	}
}

func mustRun(t *testing.T, m *Machine, ops []workload.Op) {
	t.Helper()
	if err := m.Run(workload.NewFromOps("test", ops)); err != nil {
		t.Fatal(err)
	}
}

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNativeAccessLifecycle(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeNative, pagetable.Size4K))
	base := uint64(0x4000_0000)
	ops := append(setupOps(base, 16<<12, pagetable.Size4K),
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 0x123},
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 0x456}, // TLB hit
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 0x1000, Write: true},
	)
	mustRun(t, m, ops)
	s := m.Stats()
	if s.Accesses != 3 || s.Writes != 1 {
		t.Errorf("accesses/writes = %d/%d", s.Accesses, s.Writes)
	}
	if s.TLBMisses != 2 {
		t.Errorf("TLB misses = %d, want 2", s.TLBMisses)
	}
	// First miss: cold walk, 4 refs. Second miss: PWC hit, 1 ref.
	if s.WalkRefs != 5 {
		t.Errorf("walk refs = %d, want 5", s.WalkRefs)
	}
	r := m.Report("t")
	if r.WalkCycles != 5*m.Config().MemRefCycles {
		t.Errorf("walk cycles = %d", r.WalkCycles)
	}
	if r.TrapCycles != 0 {
		t.Errorf("native run charged VMM cycles: %d", r.TrapCycles)
	}
	// Hardware set A on the touched page and D on the written one.
	p, _ := m.OS.Process(0)
	res, _ := p.PT.Lookup(base)
	if !res.Entry.Accessed() {
		t.Error("A bit not set by native walker")
	}
	res, _ = p.PT.Lookup(base + 0x1000)
	if !res.Entry.Dirty() {
		t.Error("D bit not set by native walker on store")
	}
}

func TestAccessBeforeScheduleFails(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeNative, pagetable.Size4K))
	if err := m.Access(0x1000, false); err == nil {
		t.Fatal("access with no process should fail")
	}
}

func TestNativeDemandFaultAndSegfault(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeNative, pagetable.Size4K))
	base := uint64(0x4000_0000)
	ops := []workload.Op{
		{Kind: workload.OpCreateProcess, PID: 0},
		{Kind: workload.OpMmap, PID: 0, VA: base, Len: 8 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpCtxSwitch, PID: 0},
		{Kind: workload.OpAccess, PID: 0, VA: base}, // demand fault
	}
	mustRun(t, m, ops)
	if m.Stats().GuestPageFaults != 1 {
		t.Errorf("page faults = %d", m.Stats().GuestPageFaults)
	}
	if err := m.Access(0xdead_0000_0000, false); err == nil {
		t.Fatal("segfault not reported")
	}
}

func TestVirtualizedTechniques(t *testing.T) {
	base := uint64(0x4000_0000)
	for _, tech := range []walker.Mode{walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		t.Run(tech.String(), func(t *testing.T) {
			m := newMachine(t, smallConfig(tech, pagetable.Size4K))
			ops := append(setupOps(base, 64<<12, pagetable.Size4K),
				workload.Op{Kind: workload.OpAccess, PID: 0, VA: base},
				workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 0x2000, Write: true},
				workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 0x2100, Write: true},
			)
			mustRun(t, m, ops)
			s := m.Stats()
			if s.Accesses != 3 {
				t.Errorf("accesses = %d", s.Accesses)
			}
			r := m.Report("t")
			if tech == walker.ModeNested && r.VMExitTotal() != 0 {
				t.Errorf("nested run trapped: %+v", r.VMExits)
			}
			if tech != walker.ModeNested {
				if r.VMExits[1] == 0 && r.VMExits[0] == 0 {
					t.Errorf("shadow-family run has no fills/PT traps: %+v", r.VMExits)
				}
				if r.TrapCycles == 0 {
					t.Error("no VMM cycles charged")
				}
			}
		})
	}
}

func TestShadowCOWCostsTwoTrapsPerPage(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeShadow, pagetable.Size4K))
	base := uint64(0x4000_0000)
	pages := uint64(4)
	ops := setupOps(base, pages<<12, pagetable.Size4K)
	// Touch every page so the shadow table covers it (and traps are from
	// COW, not initial fills).
	for i := uint64(0); i < pages; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12})
	}
	mustRun(t, m, ops)
	pre := m.VM.Stats()
	mustRun(t, m, []workload.Op{{Kind: workload.OpMarkCOW, PID: 0, VA: base}})
	post := m.VM.Stats()
	ptw := post.Traps[1] - pre.Traps[1]   // TrapPTWrite
	flush := post.Traps[4] - pre.Traps[4] // TrapTLBFlush
	if ptw != uint64(pages) || flush != uint64(pages) {
		t.Errorf("COW marking: %d PT-write + %d flush traps, want %d+%d (paper §II-B)", ptw, flush, pages, pages)
	}
	// Writing a COW page now: guest fault, COW break, more traps, and the
	// data converges to a writable mapping.
	mustRun(t, m, []workload.Op{{Kind: workload.OpAccess, PID: 0, VA: base, Write: true}})
	if m.OS.Stats().COWBreaks != 1 {
		t.Errorf("COW breaks = %d", m.OS.Stats().COWBreaks)
	}
}

func TestAgileConvergesToCheapWalks(t *testing.T) {
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	cfg.EnablePWC = false
	cfg.EnableNTLB = false
	m := newMachine(t, cfg)
	base := uint64(0x4000_0000)
	ops := setupOps(base, 256<<12, pagetable.Size4K)
	mustRun(t, m, ops)
	// Phase 1: repeated accesses, no churn => stays in shadow: walks cost 4.
	for i := 0; i < 3; i++ {
		mustRun(t, m, []workload.Op{{Kind: workload.OpAccess, PID: 0, VA: base + uint64(i)<<12}})
	}
	w := m.Walker.Stats()
	if w.ByNestedLevels[0] == 0 {
		t.Error("no full-shadow walks")
	}
	// Phase 2: demand faults in an unpopulated region keep writing PTEs in
	// one leaf table; the write threshold flips it to nested mode.
	churn := uint64(0x9000_0000)
	mustRun(t, m, []workload.Op{{Kind: workload.OpMmap, PID: 0, VA: churn, Len: 16 << 12, Size: pagetable.Size4K}})
	for i := 0; i < 6; i++ {
		mustRun(t, m, []workload.Op{{Kind: workload.OpAccess, PID: 0, VA: churn + uint64(i)<<12, Write: true}})
	}
	mgr := m.Managers()[asidFor(0)]
	if mgr == nil {
		t.Fatal("no agile manager")
	}
	if mgr.NestedNodes() == 0 {
		t.Error("agile manager never switched any node to nested")
	}
	// Walks in the churned region now switch at the leaf (8 refs each).
	if m.Walker.Stats().ByNestedLevels[1] == 0 {
		t.Error("no switched walks observed")
	}
}

func TestContextSwitchUpdatesRegs(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeShadow, pagetable.Size4K))
	ops := []workload.Op{
		{Kind: workload.OpCreateProcess, PID: 0},
		{Kind: workload.OpCreateProcess, PID: 1},
		{Kind: workload.OpMmap, PID: 0, VA: 0x1000_0000, Len: 1 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpMmap, PID: 1, VA: 0x2000_0000, Len: 1 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpCtxSwitch, PID: 0},
		{Kind: workload.OpAccess, PID: 0, VA: 0x1000_0000},
		{Kind: workload.OpCtxSwitch, PID: 1},
		{Kind: workload.OpAccess, PID: 1, VA: 0x2000_0000},
	}
	mustRun(t, m, ops)
	if m.Stats().CtxSwitches != 2 {
		t.Errorf("ctx switches = %d", m.Stats().CtxSwitches)
	}
	if got := m.VM.Stats().Traps[3]; got < 2 { // TrapContextSwitch
		t.Errorf("context switch traps = %d, want >= 2", got)
	}
	if m.Regs().ASID != asidFor(1) {
		t.Errorf("regs.ASID = %d", m.Regs().ASID)
	}
}

func TestProfilesRunAllTechniques(t *testing.T) {
	if testing.Short() {
		t.Skip("full profile sweep in long mode only")
	}
	prof, _ := workload.ProfileByName("dedup")
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		for _, ps := range []pagetable.Size{pagetable.Size4K, pagetable.Size2M} {
			m := newMachine(t, smallConfig(tech, ps))
			gen := workload.New(prof, ps, 5_000, 42)
			if err := m.Run(gen); err != nil {
				t.Fatalf("%v/%v: %v", tech, ps, err)
			}
			r := m.Report(prof.Name)
			if r.Accesses == 0 || r.IdealCycles == 0 {
				t.Fatalf("%v/%v: empty report", tech, ps)
			}
		}
	}
}

func TestReportDerivations(t *testing.T) {
	var r Report
	r.IdealCycles, r.WalkCycles, r.TrapCycles = 1000, 300, 200
	if r.ExecCycles() != 1500 {
		t.Error("ExecCycles")
	}
	if r.WalkOverhead() != 0.3 || r.VMMOverhead() != 0.2 || r.TotalOverhead() != 0.5 {
		t.Error("overheads")
	}
	r.TLBMisses = 10
	r.WalkRefs = 45
	if r.RefsPerMiss() != 4.5 {
		t.Error("RefsPerMiss")
	}
	r.Accesses = 1000
	if r.MPKI() != 10 {
		t.Error("MPKI")
	}
	if r.String() == "" {
		t.Error("String")
	}
	if (Report{}).WalkOverhead() != 0 || (Report{}).RefsPerMiss() != 0 || (Report{}).MPKI() != 0 {
		t.Error("zero-value derivations should be 0")
	}
}

func TestReclaimUnderShadowTrapsButNotNested(t *testing.T) {
	base := uint64(0x4000_0000)
	traps := map[walker.Mode]uint64{}
	for _, tech := range []walker.Mode{walker.ModeNested, walker.ModeShadow} {
		m := newMachine(t, smallConfig(tech, pagetable.Size4K))
		ops := setupOps(base, 32<<12, pagetable.Size4K)
		for i := uint64(0); i < 32; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12})
		}
		ops = append(ops, workload.Op{Kind: workload.OpReclaim, PID: 0, N: 32})
		mustRun(t, m, ops)
		traps[tech] = m.Counters().VMExitTotal()
	}
	if traps[walker.ModeNested] != 0 {
		t.Errorf("nested reclaim trapped %d times", traps[walker.ModeNested])
	}
	if traps[walker.ModeShadow] == 0 {
		t.Error("shadow reclaim did not trap")
	}
}

func Test2MConfigsWork(t *testing.T) {
	base := uint64(0x4000_0000)
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		m := newMachine(t, smallConfig(tech, pagetable.Size2M))
		ops := append(setupOps(base, 8<<21, pagetable.Size2M),
			workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 0x12345, Write: true},
		)
		mustRun(t, m, ops)
		if m.Stats().Accesses != 1 {
			t.Fatalf("%v: run failed", tech)
		}
	}
}

func TestRefsHistogramTracksWalks(t *testing.T) {
	cfg := smallConfig(walker.ModeNested, pagetable.Size4K)
	cfg.EnablePWC = false
	cfg.EnableNTLB = false
	m := newMachine(t, cfg)
	base := uint64(0x4000_0000)
	ops := setupOps(base, 512<<12, pagetable.Size4K)
	for i := uint64(0); i < 512; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12})
	}
	mustRun(t, m, ops)
	h := m.RefsHist()
	if h.Count() == 0 {
		t.Fatal("histogram empty")
	}
	// All cold nested walks without MMU caches cost exactly 24 references.
	if h.Fraction(24) != 1.0 {
		t.Errorf("nested no-cache walks: %s", h)
	}
	r := m.Report("t")
	if r.RefsP50 != 24 || r.RefsP95 != 24 || r.RefsMax != 24 {
		t.Errorf("report percentiles = %d/%d/%d", r.RefsP50, r.RefsP95, r.RefsMax)
	}
	m.ResetMeasurement()
	if m.RefsHist().Count() != 0 {
		t.Error("histogram survived measurement reset")
	}
}

func TestSHSPBaselineMachine(t *testing.T) {
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	cfg.UseSHSP = true
	m := newMachine(t, cfg)
	base := uint64(0x4000_0000)
	ops := setupOps(base, 64<<12, pagetable.Size4K)
	for i := uint64(0); i < 64; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12})
	}
	mustRun(t, m, ops)
	ctls := m.shsp
	if len(ctls) != 1 {
		t.Fatalf("SHSP controllers = %d", len(ctls))
	}
	if len(m.Managers()) != 0 {
		t.Error("agile manager created alongside SHSP")
	}
	// SHSP starts the process fully nested: 24-ref cold walks (with MMU
	// caches partial, but the first walk is fully cold).
	if m.RefsHist().Max() != 24 {
		t.Errorf("max refs = %d, want 24 (nested start)", m.RefsHist().Max())
	}
	if m.Clock() == 0 {
		t.Error("clock did not advance")
	}
	rep := m.Report("t")
	var toShadow, toNested uint64
	for _, c := range ctls {
		s := c.Stats()
		toShadow += s.ToShadow
		toNested += s.ToNested
	}
	if rep.SwitchesToShadow != toShadow || rep.SwitchesToNested != toNested {
		t.Errorf("report switches %d/%d, SHSP controllers %d/%d",
			rep.SwitchesToShadow, rep.SwitchesToNested, toShadow, toNested)
	}
}

func TestContextSwitchConvenienceWrapper(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeNative, pagetable.Size4K))
	if _, err := m.OS.CreateProcess(0, asidFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.ContextSwitch(0); err != nil {
		t.Fatal(err)
	}
	if m.Regs().ASID != asidFor(0) {
		t.Error("ContextSwitch did not install regs on core 0")
	}
}

func TestInstructionFetchUsesITLB(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeNative, pagetable.Size4K))
	code := uint64(0x0040_0000)
	ops := setupOps(code, 8<<12, pagetable.Size4K)
	mustRun(t, m, ops)
	// A fetch misses, walks, and fills the I-side arrays.
	if err := m.Fetch(0, code); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TLBMisses != 1 {
		t.Fatalf("fetch misses = %d", m.Stats().TLBMisses)
	}
	// Re-fetch hits the ITLB; a data access to the same page still misses
	// in L1 (separate arrays) but hits the unified L2.
	if err := m.Fetch(0, code); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TLBMisses != 1 {
		t.Error("warm fetch missed")
	}
	pre := m.Counters()
	if err := m.Access(code, false); err != nil {
		t.Fatal(err)
	}
	post := m.Counters()
	if post.TLBL2Hits != pre.TLBL2Hits+1 {
		t.Errorf("data access after fetch: L2 hits %d -> %d, want unified-L2 hit", pre.TLBL2Hits, post.TLBL2Hits)
	}
}

// TestWriteProtectRetryMarksSecondRecord pins the miss-record semantics of
// the write-protect retry path: a store that walks, hits a read-only entry,
// upgrades permission, and re-walks produces TWO records — both carrying
// the store's write bit — and only the second is marked Retry. Records are
// deliberately not deduplicated (both walks happened and both are charged),
// so consumers that want logical misses filter on !Retry.
func TestWriteProtectRetryMarksSecondRecord(t *testing.T) {
	m := newMachine(t, smallConfig(walker.ModeNative, pagetable.Size4K))
	base := uint64(0x4000_0000)
	mustRun(t, m, setupOps(base, 4<<12, pagetable.Size4K))
	mustRun(t, m, []workload.Op{{Kind: workload.OpMarkCOW, PID: 0, VA: base}})
	type rec struct {
		va           uint64
		write, retry bool
	}
	var recs []rec
	m.SetWalkObserver(func(ev telemetry.WalkEvent) {
		recs = append(recs, rec{ev.VA, ev.Write, ev.Retry})
	})
	// One store to the COW page: cold walk finds the read-only entry, the
	// COW break upgrades it, and the re-walk logs the retry record.
	mustRun(t, m, []workload.Op{{Kind: workload.OpAccess, PID: 0, VA: base, Write: true}})
	if len(recs) != 2 {
		t.Fatalf("records = %+v, want exactly 2 (no dedup, no extras)", recs)
	}
	if !recs[0].write || recs[0].retry {
		t.Errorf("first record = %+v, want write-flagged non-retry", recs[0])
	}
	if !recs[1].write || !recs[1].retry {
		t.Errorf("second record = %+v, want write-flagged retry", recs[1])
	}
	if recs[0].va != base || recs[1].va != base {
		t.Errorf("record VAs = %+v", recs)
	}
	// A plain read miss elsewhere logs a single non-retry, non-write record.
	recs = recs[:0]
	mustRun(t, m, []workload.Op{{Kind: workload.OpAccess, PID: 0, VA: base + 0x2000}})
	if len(recs) != 1 || recs[0].write || recs[0].retry {
		t.Errorf("read-miss records = %+v, want one clean record", recs)
	}
}

// TestTraceReplayRejectsVAsAbove48Bits: a recorded op stream keeps every
// VA bit across a trace round trip, and replaying an access at or above
// 2^48 fails with a VAError under every technique instead of aliasing the
// mapped page below it.
func TestTraceReplayRejectsVAsAbove48Bits(t *testing.T) {
	const base = 0x1000_0000
	for _, bad := range []workload.Op{
		{Kind: workload.OpAccess, VA: base | 1<<48},
		{Kind: workload.OpAccess, VA: base | 1<<63, Write: true},
		{Kind: workload.OpAccess, VA: base | 1<<50, Fetch: true},
	} {
		ops := append(setupOps(base, 1<<20, pagetable.Size4K), workload.Op{Kind: workload.OpAccess, VA: base}, bad)
		var buf bytes.Buffer
		if err := trace.WriteOps(&buf, ops); err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadOps(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ops) || got[len(got)-1] != bad {
			t.Fatalf("round trip: %+v, want %+v", got, ops)
		}
		for _, mode := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
			m := newMachine(t, smallConfig(mode, pagetable.Size4K))
			err := m.Run(workload.NewFromOps("trace", got))
			var vaErr *VAError
			if !errors.As(err, &vaErr) || vaErr.VA != bad.VA {
				t.Errorf("%v: replay of %#x: err = %v, want a VAError for it", mode, bad.VA, err)
			}
			if s := m.Stats(); s.Accesses != 1 {
				t.Errorf("%v: %d accesses counted, want only the in-range one", mode, s.Accesses)
			}
		}
	}
}
