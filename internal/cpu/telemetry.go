package cpu

import (
	"agilepaging/internal/telemetry"
	"agilepaging/internal/vmm"
)

// SetTelemetry attaches an epoch recorder. The recorder is rebased to the
// machine's current counters so its first epoch starts here; pass nil to
// detach. Per access the attached recorder costs one branch and one
// increment; counter assembly runs only at epoch boundaries (and the
// TLB-hit path stays at 0 allocs/op — see TestAccessHitZeroAllocs).
func (m *Machine) SetTelemetry(rec *telemetry.Recorder) {
	m.tel = rec
	if rec != nil {
		rec.Rebase(m.Counters())
	}
}

// SetWalkEventRing attaches a bounded per-walk event ring (nil detaches).
// Recording is one array-slot copy per completed walk; the ring never
// grows.
func (m *Machine) SetWalkEventRing(ring *telemetry.EventRing) { m.walkEvents = ring }

// FlushTelemetry closes the partial epoch in progress, if any. Runs call
// it once after the op stream ends so the series covers the full tail.
func (m *Machine) FlushTelemetry() {
	if m.tel != nil {
		m.tel.Flush(m.Counters())
	}
}

// Counters assembles one flat counter snapshot across every layer of the
// machine: per-core TLBs, walkers and MMU caches, the VMM's trap
// accounting, the guest OS, and the agile managers' (or SHSP controllers')
// policy state. It is the only place counters are aggregated: epoch
// telemetry samples it and Report embeds it. It only reads — attaching
// telemetry must leave simulated results bit-identical.
func (m *Machine) Counters() telemetry.Counters {
	var c telemetry.Counters
	c.Clock = m.clock
	c.Accesses = m.stats.Accesses
	c.Writes = m.stats.Writes
	c.TLBMisses = m.stats.TLBMisses
	c.WalkRefs = m.stats.WalkRefs
	c.GuestPageFaults = m.stats.GuestPageFaults
	c.WriteProtFaults = m.stats.WriteProtFaults
	c.CtxSwitches = m.stats.CtxSwitches
	c.IdealCycles = m.stats.IdealCycles
	c.WalkCycles = m.stats.WalkCycles

	for _, core := range m.cores {
		ts := core.tlbs.Stats()
		c.TLBLookups += ts.Lookups
		c.TLBL1Hits += ts.L1Hits
		c.TLBL2Hits += ts.L2Hits
		ws := core.walker.Stats()
		c.Walks += ws.Walks
		c.WalkerRefs += ws.Refs
		for i := range ws.ByNestedLevels {
			c.WalksByNestedLevels[i] += ws.ByNestedLevels[i]
			c.RefsByNestedLevels[i] += ws.RefsByNestedLevels[i]
		}
		c.FullNestedWalks += ws.FullNested
		c.FullNestedRefs += ws.FullNestedRefs
		if core.pwc != nil {
			ps := core.pwc.Stats()
			c.PWCLookups += ps.Lookups
			c.PWCHits += ps.Hits
		}
		if core.ntlb != nil {
			ns := core.ntlb.Stats()
			c.NTLBLookups += ns.Lookups
			c.NTLBHits += ns.Hits
		}
	}

	if m.VM != nil {
		vs := m.VM.Stats()
		c.VMExits = vs.Traps
		c.TrapCycles = vs.TrapCycles
		c.PTUpdateTrapCycles = vs.Traps[vmm.TrapPTWrite]*m.cfg.TrapCosts.Cycles[vmm.TrapPTWrite] +
			vs.Traps[vmm.TrapTLBFlush]*m.cfg.TrapCosts.Cycles[vmm.TrapTLBFlush]
		// The §IV hardware A/D optimization converts VM exits into extra
		// page-walk references; charge them to the walk bucket.
		c.WalkCycles += vs.HWADRefs * m.cfg.MemRefCycles
		m.VM.EachContext(func(ctx *vmm.Context) {
			c.ProtectedPages += ctx.ProtectedPages()
			byLevel := ctx.ProtectedPagesByLevel()
			for l := range byLevel {
				c.ProtectedByLevel[l] += byLevel[l]
			}
		})
	}

	os := m.OS.Stats()
	c.MapsInstalled = os.MapsInstalled
	c.Unmapped = os.Unmapped

	for _, mgr := range m.managers {
		s := mgr.Stats()
		c.SwitchesToNested += s.SwitchesToNested
		c.SwitchesToShadow += s.SwitchesToShadow
		c.DirtyScans += s.DirtyScans
		c.NestedNodes += mgr.NestedNodes()
		byLevel := mgr.NestedNodesByLevel()
		for l := range byLevel {
			c.NestedNodesByLevel[l] += byLevel[l]
		}
	}
	// SHSP replaces the agile manager, so at most one of the two loops
	// contributes switches.
	for _, ctl := range m.shsp {
		s := ctl.Stats()
		c.SwitchesToNested += s.ToNested
		c.SwitchesToShadow += s.ToShadow
	}
	return c
}
