package cpu

import (
	"reflect"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// runUnbatched executes ops one Exec call at a time — the pre-batching
// reference path — on a machine with the L0 memo disabled.
func runUnbatched(t testing.TB, cfg Config, cores int, ops []workload.Op, epochLen int) (Report, *telemetry.Series) {
	t.Helper()
	cfg.DisableL0Memo = true
	if cores > cfg.Cores {
		cfg.Cores = cores
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(epochLen)
	m.SetTelemetry(rec)
	for i := range ops {
		if err := m.Exec(ops[i]); err != nil {
			t.Fatalf("unbatched op %d: %v", i, err)
		}
	}
	m.FlushTelemetry()
	return m.Report("ref"), rec.Series()
}

// runBatched executes the same ops through RunOps with the memo enabled —
// the production fast path.
func runBatched(t testing.TB, cfg Config, cores int, ops []workload.Op, epochLen int) (Report, *telemetry.Series) {
	t.Helper()
	if cores > cfg.Cores {
		cfg.Cores = cores
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(epochLen)
	m.SetTelemetry(rec)
	if err := m.RunOps(ops, 0); err != nil {
		t.Fatal(err)
	}
	m.FlushTelemetry()
	return m.Report("ref"), rec.Series()
}

func checkEquivalence(t testing.TB, cfg Config, prof workload.Profile, accesses int, seed int64) {
	t.Helper()
	ops := workload.Collect(workload.New(prof, cfg.PageSize, accesses, seed), -1)
	const epochLen = 97 // prime, so epoch edges land mid-burst
	want, wantSeries := runUnbatched(t, cfg, prof.Threads, ops, epochLen)
	got, gotSeries := runBatched(t, cfg, prof.Threads, ops, epochLen)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s/%v: batched+memo report differs from per-op reference\nref:     %+v\nbatched: %+v",
			prof.Name, cfg.Technique, want, got)
	}
	if !reflect.DeepEqual(wantSeries.Epochs, gotSeries.Epochs) {
		t.Errorf("%s/%v: telemetry epoch series differ (ref %d epochs, batched %d)",
			prof.Name, cfg.Technique, len(wantSeries.Epochs), len(gotSeries.Epochs))
	}
}

// TestBatchedExecutionEquivalence pins the PR's core safety property: the
// batched dispatch loop plus the L0 translation memo produce reports and
// telemetry series bit-identical to per-op execution with the memo off, for
// every technique and for workloads that hammer each invalidation path
// (context-switch flushes, mmap churn unmaps, COW write-protects, reclaim).
func TestBatchedExecutionEquivalence(t *testing.T) {
	profiles := []workload.Profile{
		{
			Name: "zipf-hot", FootprintBytes: 4 << 20, Pattern: workload.PatternZipf,
			ZipfS: 1.2, WriteRatio: 0.3, PrePopulate: true,
		},
		{
			Name: "flush-heavy", FootprintBytes: 2 << 20, Pattern: workload.PatternUniform,
			WriteRatio: 0.5, Processes: 3, CtxSwitchEvery: 40,
		},
		{
			Name: "churn-cow", FootprintBytes: 2 << 20, Pattern: workload.PatternZipf,
			ZipfS: 1.1, WriteRatio: 0.4, MmapChurnEvery: 150, ChurnRegionBytes: 64 << 10,
			ChurnRegions: 3, CowEvery: 300, CowRegionBytes: 64 << 10,
		},
		{
			Name: "threaded", FootprintBytes: 2 << 20, Pattern: workload.PatternZipf,
			ZipfS: 1.0, WriteRatio: 0.2, Threads: 3, ReclaimEvery: 250, ReclaimPages: 16,
		},
		{
			Name: "thp-collapse", FootprintBytes: 4 << 20, Pattern: workload.PatternZipf,
			ZipfS: 1.1, WriteRatio: 0.3, CollapseEvery: 400, CowEvery: 550, CowRegionBytes: 64 << 10,
		},
	}
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		for _, prof := range profiles {
			prof := prof
			t.Run(tech.String()+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(tech, pagetable.Size4K)
				cfg.PolicyTickOps = 500 // exercise policy switching mid-stream
				checkEquivalence(t, cfg, prof, 4000, 42)
			})
		}
	}
}

// FuzzBatchedExecutionEquivalence drives the same property over fuzzer-chosen
// profile knobs and seeds.
func FuzzBatchedExecutionEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(800), uint8(0), uint8(30), uint8(1), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add(int64(7), uint16(1200), uint8(3), uint8(60), uint8(2), uint8(2), uint16(50), uint16(200), uint16(300), uint16(0))
	f.Add(int64(99), uint16(600), uint8(2), uint8(10), uint8(3), uint8(1), uint16(25), uint16(0), uint16(150), uint16(0))
	f.Add(int64(21), uint16(1000), uint8(3), uint8(50), uint8(1), uint8(1), uint16(0), uint16(0), uint16(250), uint16(350))
	f.Fuzz(func(t *testing.T, seed int64, accesses uint16, techSel, writePct, procs, threads uint8, ctxEvery, churnEvery, cowEvery, collapseEvery uint16) {
		techs := []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile}
		tech := techs[int(techSel)%len(techs)]
		prof := workload.Profile{
			Name:           "fuzz",
			FootprintBytes: 2 << 20,
			Pattern:        workload.PatternZipf,
			ZipfS:          1.1,
			WriteRatio:     float64(writePct%101) / 100,
			Processes:      1 + int(procs%4),
			Threads:        1 + int(threads%4),
			CtxSwitchEvery: int(ctxEvery % 512),
			MmapChurnEvery: int(churnEvery % 1024),
			CowEvery:       int(cowEvery % 1024),
			CollapseEvery:  int(collapseEvery % 1024),
		}
		if prof.MmapChurnEvery > 0 {
			prof.ChurnRegionBytes, prof.ChurnRegions = 32<<10, 2
		}
		if prof.CowEvery > 0 {
			prof.CowRegionBytes = 32 << 10
		}
		if prof.Processes > 1 && prof.CtxSwitchEvery == 0 {
			prof.CtxSwitchEvery = 64
		}
		cfg := smallConfig(tech, pagetable.Size4K)
		cfg.PolicyTickOps = 400
		checkEquivalence(t, cfg, prof, 200+int(accesses%1200), seed)
	})
}

// TestL0MemoInvalidation checks every path that can retire a cached
// translation bumps the hierarchy generation and so makes the per-core memo
// stale before the next access could consult it.
func TestL0MemoInvalidation(t *testing.T) {
	base := uint64(0x4000_0000)
	setup := func(t *testing.T, tech walker.Mode) *Machine {
		t.Helper()
		m := newMachine(t, smallConfig(tech, pagetable.Size4K))
		mustRun(t, m, setupOps(base, 16<<12, pagetable.Size4K))
		if err := m.Access(base|0x40, false); err != nil {
			t.Fatal(err)
		}
		c := m.cores[0]
		if !c.l0.valid || c.l0.gen != c.tlbs.Gen() {
			t.Fatalf("memo not live after access: %+v gen=%d", c.l0, c.tlbs.Gen())
		}
		return m
	}

	t.Run("unmap", func(t *testing.T) {
		m := setup(t, walker.ModeNative)
		c := m.cores[0]
		if err := m.Exec(workload.Op{Kind: workload.OpMunmap, PID: 0, VA: base}); err != nil {
			t.Fatal(err)
		}
		if c.l0.gen == c.tlbs.Gen() {
			t.Error("munmap did not advance the TLB generation; memo would serve a stale page")
		}
	})

	t.Run("ctxswitch-asid", func(t *testing.T) {
		// TLB entries are ASID-tagged, so a context switch flushes nothing;
		// the memo's ASID guard is what keeps it from answering for the
		// wrong address space.
		m := setup(t, walker.ModeNative)
		c := m.cores[0]
		mustRun(t, m, []workload.Op{
			{Kind: workload.OpCreateProcess, PID: 1},
			{Kind: workload.OpCtxSwitch, PID: 1},
		})
		if c.l0.asid == c.regs.ASID {
			t.Error("memo ASID still matches after a context switch; it could answer for the wrong process")
		}
	})

	t.Run("write-protect-cow", func(t *testing.T) {
		m := setup(t, walker.ModeNative)
		c := m.cores[0]
		if err := m.Exec(workload.Op{Kind: workload.OpMarkCOW, PID: 0, VA: base}); err != nil {
			t.Fatal(err)
		}
		if c.l0.gen == c.tlbs.Gen() {
			t.Error("COW write-protect did not advance the TLB generation")
		}
		// A write through the stale memo must take the full path and succeed.
		if err := m.Access(base|0x80, true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("tlb-gen-is-per-core", func(t *testing.T) {
		cfg := smallConfig(walker.ModeNative, pagetable.Size4K)
		cfg.Cores = 2
		m := newMachine(t, cfg)
		mustRun(t, m, []workload.Op{
			{Kind: workload.OpCreateProcess, PID: 0},
			{Kind: workload.OpMmap, PID: 0, VA: base, Len: 16 << 12, Size: pagetable.Size4K},
			{Kind: workload.OpPopulate, PID: 0, VA: base},
			{Kind: workload.OpCtxSwitch, PID: 0, Core: 0},
			{Kind: workload.OpCtxSwitch, PID: 0, Core: 1},
			{Kind: workload.OpAccess, PID: 0, Core: 0, VA: base | 0x40},
			{Kind: workload.OpAccess, PID: 0, Core: 1, VA: base | 0x40},
		})
		// A shootdown hits every core's hierarchy, so both memos go stale.
		if err := m.Exec(workload.Op{Kind: workload.OpMunmap, PID: 0, VA: base}); err != nil {
			t.Fatal(err)
		}
		for i, c := range m.cores {
			if c.l0.gen == c.tlbs.Gen() {
				t.Errorf("core %d memo survived a cross-core shootdown", i)
			}
		}
	})

	// Agile policy switches rebuild translation state; the memo must not
	// carry across one. Equivalence over an adaptation-heavy run proves it:
	// the memo-on batched run must match per-op memo-off bit for bit while
	// real mode switches happen.
	t.Run("agile-policy-switch", func(t *testing.T) {
		prof := workload.Profile{
			Name: "adapt", FootprintBytes: 4 << 20, Pattern: workload.PatternZipf,
			ZipfS: 0.8, WriteRatio: 0.4, MmapChurnEvery: 200,
			ChurnRegionBytes: 64 << 10, ChurnRegions: 2,
		}
		cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
		cfg.PolicyTickOps = 300
		ops := workload.Collect(workload.New(prof, cfg.PageSize, 6000, 7), -1)
		want, _ := runUnbatched(t, cfg, 1, ops, 1<<30)
		got, _ := runBatched(t, cfg, 1, ops, 1<<30)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("agile adaptation run diverged with memo on:\nref:     %+v\nbatched: %+v", want, got)
		}
		if got.SwitchesToShadow+got.SwitchesToNested == 0 {
			t.Error("adaptation run exercised no policy switches; tighten the workload")
		}
	})
}
