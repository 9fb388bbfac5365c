//go:build !race

// Allocation guards for the construct-once/reset-many lifecycle. Excluded
// under the race detector, whose instrumentation perturbs allocation counts.

package cpu

import (
	"runtime"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// allocOps is a short run that touches every run-state container: process
// creation, mapping, demand faults, writes, a context switch, an unmap.
func allocOps() []workload.Op {
	base := uint64(0x4000_0000)
	ops := append(setupOps(base, 32<<12, pagetable.Size4K),
		workload.Op{Kind: workload.OpCreateProcess, PID: 1},
		workload.Op{Kind: workload.OpMmap, PID: 1, VA: base, Len: 8 << 12, Size: pagetable.Size4K},
	)
	for i := uint64(0); i < 32; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12, Write: i%2 == 0})
	}
	ops = append(ops,
		workload.Op{Kind: workload.OpCtxSwitch, PID: 1},
		workload.Op{Kind: workload.OpAccess, PID: 1, VA: base + 0x80, Write: true},
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
		workload.Op{Kind: workload.OpMunmap, PID: 1, VA: base},
	)
	return ops
}

// measuredAllocs runs dirty then op for iters iterations and returns the
// total mallocs charged to op alone. The dirtying work (which legitimately
// allocates — process structs, regions, table bookkeeping) happens outside
// the measured window, unlike testing.AllocsPerRun, which cannot split a
// cycle that way.
func measuredAllocs(iters int, dirty, op func()) uint64 {
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < iters; i++ {
		dirty()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return total
}

// TestResetAllocFree pins the Reset() contract: once a machine's internal
// buffers have grown to a workload's high-water mark, Reset of the dirtied
// machine performs zero heap allocations.
func TestResetAllocFree(t *testing.T) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeAgile} {
		t.Run(tech.String(), func(t *testing.T) {
			cfg := smallConfig(tech, pagetable.Size4K)
			m := newMachine(t, cfg)
			ops := allocOps()
			dirty := func() {
				for i := range ops {
					if err := m.Exec(ops[i]); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			reset := func() {
				if err := m.Reset(cfg); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up cycle: grow maps, freelists, and scratch to capacity.
			dirty()
			reset()
			if allocs := measuredAllocs(10, dirty, reset); allocs != 0 {
				t.Errorf("%v: Reset of a dirtied machine allocated %d objects over 10 cycles, want 0", tech, allocs)
			}
		})
	}
}

// TestPooledReacquireAllocFree pins the pool's steady state: releasing a
// dirtied machine and reacquiring its geometry (which resets it) allocates
// nothing.
func TestPooledReacquireAllocFree(t *testing.T) {
	ResetMachinePool()
	t.Cleanup(ResetMachinePool)
	cfg := smallConfig(walker.ModeNested, pagetable.Size4K)
	m, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := allocOps()
	dirty := func() {
		for i := range ops {
			if err := m.Exec(ops[i]); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	cycle := func() {
		ReleaseMachine(m)
		var aerr error
		if m, aerr = AcquireMachine(cfg); aerr != nil {
			t.Fatal(aerr)
		}
	}
	// Warm-up: the first release grows the idle slice, the first reacquire
	// grows reset-path buffers to this workload's high-water mark.
	dirty()
	cycle()
	if allocs := measuredAllocs(10, dirty, cycle); allocs != 0 {
		t.Errorf("release+reacquire of a dirtied machine allocated %d objects over 10 cycles, want 0", allocs)
	}
	if hits, misses, _, _ := MachinePoolStats(); misses != 1 || hits < 11 {
		t.Errorf("pool stats after steady-state loop: hits=%d misses=%d, want 1 miss and ≥11 hits", hits, misses)
	}
}
