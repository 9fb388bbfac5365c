package cpu

import (
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// benchMachine builds a machine with one process and a populated region of
// `pages` 4K pages, context-switched in and ready for accesses.
func benchMachine(b *testing.B, tech walker.Mode, pages int) (*Machine, uint64) {
	b.Helper()
	cfg := smallConfig(tech, pagetable.Size4K)
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := uint64(0x4000_0000)
	ops := setupOps(base, uint64(pages)<<12, pagetable.Size4K)
	if err := m.Run(workload.NewFromOps("bench", ops)); err != nil {
		b.Fatal(err)
	}
	return m, base
}

// BenchmarkAccessHit measures the end-to-end cost of one simulated access
// that hits the L1 TLB — the simulator's absolute hot path. Must be
// allocation-free (see TestAccessHitZeroAllocs).
func BenchmarkAccessHit(b *testing.B) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeAgile} {
		b.Run(tech.String(), func(b *testing.B) {
			m, base := benchMachine(b, tech, 16)
			if err := m.Access(base|0x123, false); err != nil { // warm the TLB
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Access(base|0x123, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccessSamePageRun measures a run of accesses that stay within
// one page (varying offsets), the pattern a core hammering a hot page
// produces. This is the L0 translation memo's fast path: after the first
// access the remaining ones short-circuit the TLB probe entirely while
// keeping every counter identical. Must be allocation-free.
func BenchmarkAccessSamePageRun(b *testing.B) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeAgile} {
		b.Run(tech.String(), func(b *testing.B) {
			m, base := benchMachine(b, tech, 16)
			if err := m.Access(base|0x123, false); err != nil { // warm TLB + memo
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Access(base|uint64(i&0xfff), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccessMiss measures an access whose translation misses the whole
// TLB hierarchy and pays a hardware walk. The footprint cycles through 4×
// the total TLB capacity so practically every access misses.
func BenchmarkAccessMiss(b *testing.B) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeAgile} {
		b.Run(tech.String(), func(b *testing.B) {
			const pages = 4096
			m, base := benchMachine(b, tech, pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := base + uint64(i%pages)<<12
				if err := m.Access(va, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAccessHitZeroAllocs guards the zero-allocation property of a TLB-hit
// access end to end (TLB probe, cycle accounting, policy-tick bookkeeping)
// for both an unvirtualized and an agile machine. If this fails, a change
// re-introduced a per-access allocation — see DESIGN.md "Performance
// engineering".
func TestAccessHitZeroAllocs(t *testing.T) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeAgile} {
		cfg := smallConfig(tech, pagetable.Size4K)
		// Keep the periodic policy tick out of the measured window; its
		// (rare) mode-switch work is allowed to allocate.
		cfg.PolicyTickOps = 1 << 30
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := uint64(0x4000_0000)
		if err := m.Run(workload.NewFromOps("guard", setupOps(base, 16<<12, pagetable.Size4K))); err != nil {
			t.Fatal(err)
		}
		if err := m.Access(base|0x123, false); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := m.Access(base|0x123, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v TLB-hit access allocates %.1f objects/op, want 0", tech, allocs)
		}

		// The telemetry layer must not regress the guarantee: with a
		// recorder and an event ring attached, the per-access work is one
		// increment and one compare (epoch assembly happens only at
		// boundaries, kept out of the window like the policy tick).
		m.SetTelemetry(telemetry.NewRecorder(1 << 30))
		m.SetWalkObserver(telemetry.NewEventRing(1024).Record)
		allocs = testing.AllocsPerRun(200, func() {
			if err := m.Access(base|0x123, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v TLB-hit access with telemetry allocates %.1f objects/op, want 0", tech, allocs)
		}

		// The L0 memo fast path (repeat access to the same page) and the
		// full-probe path it falls back to on a page change must both stay
		// allocation-free.
		off := uint64(0)
		allocs = testing.AllocsPerRun(200, func() {
			off = (off + 64) & 0xfff
			if err := m.Access(base|off, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v memo-hit access allocates %.1f objects/op, want 0", tech, allocs)
		}
		page := uint64(0)
		allocs = testing.AllocsPerRun(200, func() {
			page = (page + 1) & 0xf // alternate pages: TLB hit, memo miss
			if err := m.Access(base|page<<12|0x123, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v alternating-page TLB-hit access allocates %.1f objects/op, want 0", tech, allocs)
		}
	}
}

// BenchmarkMachineConstruct prices the construct-per-run lifecycle the
// machine pool exists to avoid: a full New per sweep cell (memsim arena,
// per-core TLB hierarchies, PWCs, walkers, VMM, guest OS).
func BenchmarkMachineConstruct(b *testing.B) {
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachinePooledReacquire prices the construct-once/reset-many
// replacement: release a machine that just ran a short workload and
// reacquire its geometry, which resets it to New state. Steady state must
// be allocation-free.
func BenchmarkMachinePooledReacquire(b *testing.B) {
	ResetMachinePool()
	b.Cleanup(ResetMachinePool)
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	m, err := AcquireMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := uint64(0x4000_0000)
	ops := setupOps(base, 32<<12, pagetable.Size4K)
	for i := uint64(0); i < 32; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12, Write: i%2 == 0})
	}
	run := func() {
		for i := range ops {
			if err := m.Exec(ops[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReleaseMachine(m)
		if m, err = AcquireMachine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
