package cpu

import (
	"math/rand"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// TestTranslationOracle is the end-to-end correctness invariant of the
// whole simulator: for every TLB miss the hardware walk services, the
// host-physical address it produces must equal what a software walk of the
// current guest and host page tables yields — regardless of technique,
// page size, policy decisions, zaps, switches, or cache state.
func TestTranslationOracle(t *testing.T) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		for _, ps := range []pagetable.Size{pagetable.Size4K, pagetable.Size2M} {
			t.Run(tech.String()+"/"+ps.String(), func(t *testing.T) {
				cfg := smallConfig(tech, ps)
				m := newMachine(t, cfg)
				checked := 0
				m.SetWalkObserver(func(ev telemetry.WalkEvent) {
					cur := m.OS.Current()
					if cur == nil {
						return
					}
					gr, err := cur.PT.Lookup(ev.VA)
					if err != nil {
						t.Fatalf("walk succeeded for va %#x the OS never mapped: %v", ev.VA, err)
					}
					want := gr.PA
					if m.VM != nil {
						hpa, _, err := m.VM.TranslateGPA(gr.PA)
						if err != nil {
							t.Fatalf("gpa %#x unbacked: %v", gr.PA, err)
						}
						want = hpa
					}
					if ev.HPA != want {
						t.Fatalf("%v/%v: walk(%#x) = hpa %#x, oracle %#x (nestedLevels=%d)",
							tech, ps, ev.VA, ev.HPA, want, ev.NestedLevels)
					}
					checked++
				})
				prof, _ := workload.ProfileByName("dedup")
				gen := workload.New(prof, ps, 8_000, 99)
				if err := m.Run(gen); err != nil {
					t.Fatal(err)
				}
				if checked == 0 {
					t.Fatal("oracle never exercised")
				}
			})
		}
	}
}

// TestRandomOpSoup drives the machine with a randomized, adversarial op
// stream (interleaved maps, unmaps, snapshots, collapses, reclaims,
// context switches, and accesses) under every technique and checks that
// execution always converges and never corrupts translation state.
func TestRandomOpSoup(t *testing.T) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		t.Run(tech.String(), func(t *testing.T) {
			m := newMachine(t, smallConfig(tech, pagetable.Size4K))
			rng := rand.New(rand.NewSource(7))

			const regions = 6
			const regionPages = 64
			base := func(pid, r int) uint64 {
				return uint64(pid+1)<<40 | uint64(r+1)<<30
			}
			mapped := map[[2]int]bool{}

			ops := []workload.Op{
				{Kind: workload.OpCreateProcess, PID: 0},
				{Kind: workload.OpCreateProcess, PID: 1},
				{Kind: workload.OpCtxSwitch, PID: 0},
			}
			pid := 0
			for i := 0; i < 4_000; i++ {
				r := rng.Intn(regions)
				key := [2]int{pid, r}
				switch rng.Intn(10) {
				case 0:
					if !mapped[key] {
						ops = append(ops, workload.Op{Kind: workload.OpMmap, PID: pid, VA: base(pid, r), Len: regionPages << 12, Size: pagetable.Size4K})
						mapped[key] = true
					}
				case 1:
					if mapped[key] {
						ops = append(ops, workload.Op{Kind: workload.OpMunmap, PID: pid, VA: base(pid, r)})
						mapped[key] = false
					}
				case 2:
					if mapped[key] {
						ops = append(ops, workload.Op{Kind: workload.OpPopulate, PID: pid, VA: base(pid, r)})
					}
				case 3:
					if mapped[key] {
						ops = append(ops, workload.Op{Kind: workload.OpMarkCOW, PID: pid, VA: base(pid, r)})
					}
				case 4:
					ops = append(ops, workload.Op{Kind: workload.OpReclaim, PID: pid, N: 16})
				case 5:
					pid = 1 - pid
					ops = append(ops, workload.Op{Kind: workload.OpCtxSwitch, PID: pid})
				default:
					if mapped[key] {
						va := base(pid, r) + uint64(rng.Intn(regionPages))<<12
						ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Write: rng.Intn(2) == 0})
					}
				}
			}
			if err := m.Run(workload.NewFromOps("soup", ops)); err != nil {
				t.Fatal(err)
			}
			if m.Stats().Accesses == 0 {
				t.Fatal("soup produced no accesses")
			}
		})
	}
}

// TestOpSoupDeterministic: the same soup gives identical counters.
func TestOpSoupDeterministic(t *testing.T) {
	run := func() Stats {
		m := newMachine(t, smallConfig(walker.ModeAgile, pagetable.Size4K))
		prof, _ := workload.ProfileByName("gcc")
		if err := m.Run(workload.New(prof, pagetable.Size4K, 10_000, 5)); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic run:\n%+v\n%+v", a, b)
	}
}

// TestSMPSharedAddressSpace: threads of one process on different cores have
// private TLBs (a translation cached on core 0 misses on core 1) but share
// page-table state, and TLB shootdowns reach every core.
func TestSMPSharedAddressSpace(t *testing.T) {
	cfg := smallConfig(walker.ModeShadow, pagetable.Size4K)
	cfg.Cores = 2
	m := newMachine(t, cfg)
	base := uint64(0x4000_0000)
	ops := []workload.Op{
		{Kind: workload.OpCreateProcess, PID: 0},
		{Kind: workload.OpMmap, PID: 0, VA: base, Len: 16 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpPopulate, PID: 0, VA: base},
		{Kind: workload.OpCtxSwitch, PID: 0, Core: 0},
		{Kind: workload.OpCtxSwitch, PID: 0, Core: 1},
	}
	mustRun(t, m, ops)
	if m.Cores() != 2 {
		t.Fatalf("cores = %d", m.Cores())
	}
	// Same VA touched on both cores: each core takes its own TLB miss.
	mustRun(t, m, []workload.Op{
		{Kind: workload.OpAccess, PID: 0, Core: 0, VA: base},
		{Kind: workload.OpAccess, PID: 0, Core: 1, VA: base},
	})
	// Core 0 pays 2 probes (fault + refill walk), core 1 one: the shadow
	// fill from core 0 is visible to core 1's walk, but not its TLB entry.
	if got := m.Stats().TLBMisses; got != 3 {
		t.Errorf("TLB misses = %d, want 3 (per-core TLBs)", got)
	}
	// Re-touching hits on both cores.
	pre := m.Stats().TLBMisses
	mustRun(t, m, []workload.Op{
		{Kind: workload.OpAccess, PID: 0, Core: 0, VA: base},
		{Kind: workload.OpAccess, PID: 0, Core: 1, VA: base},
	})
	if got := m.Stats().TLBMisses - pre; got != 0 {
		t.Errorf("warm misses = %d", got)
	}
	// A guest unmap shoots down both cores' TLBs: both re-miss (and the
	// page is gone, so both fault to the OS as a segfault-free remap).
	mustRun(t, m, []workload.Op{{Kind: workload.OpMunmap, PID: 0, VA: base}})
	ops = []workload.Op{
		{Kind: workload.OpMmap, PID: 0, VA: base, Len: 16 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpAccess, PID: 0, Core: 0, VA: base},
		{Kind: workload.OpAccess, PID: 0, Core: 1, VA: base},
	}
	pre = m.Stats().TLBMisses
	mustRun(t, m, ops)
	// Core 0: demand fault + shadow refill + hit-after-fill probes (3);
	// core 1: one cold probe. Both cores missing proves the shootdown
	// reached every private TLB.
	if got := m.Stats().TLBMisses - pre; got != 4 {
		t.Errorf("post-shootdown misses = %d, want 4", got)
	}
}

// TestSMPOracleMultithreaded runs the translation oracle over a
// multithreaded profile on 4 cores.
func TestSMPOracleMultithreaded(t *testing.T) {
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	cfg.Cores = 4
	m := newMachine(t, cfg)
	checked := 0
	m.SetWalkObserver(func(ev telemetry.WalkEvent) {
		cur := m.OS.Current()
		if cur == nil {
			return
		}
		gr, err := cur.PT.Lookup(ev.VA)
		if err != nil {
			t.Fatalf("walk for unmapped va %#x", ev.VA)
		}
		hpa, _, err := m.VM.TranslateGPA(gr.PA)
		if err != nil {
			t.Fatal(err)
		}
		if ev.HPA != hpa {
			t.Fatalf("walk(%#x) = %#x, oracle %#x", ev.VA, ev.HPA, hpa)
		}
		checked++
	})
	prof, _ := workload.ProfileByName("canneal") // Threads: 4
	if err := m.Run(workload.New(prof, pagetable.Size4K, 12_000, 3)); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("oracle never exercised")
	}
}
