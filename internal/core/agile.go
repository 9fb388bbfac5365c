// Package core implements the paper's primary contribution: the agile
// paging manager. It tracks, per guest process, which guest page-table
// nodes are handled in shadow mode and which in nested mode, and runs the
// VMM policies of paper §III-C:
//
//   - Shadow⇒Nested: a small write threshold (two intercepted writes to a
//     guest page-table page within a time interval) moves that node and
//     everything below it to nested mode.
//   - Nested⇒Shadow: either a simple periodic reset of all nested parts, or
//     the more effective host-dirty-bit scan that returns only the parts
//     that stopped changing, converting parents before children.
//   - Short-lived/small processes: optionally start fully nested and enable
//     agile paging only once TLB-miss overhead justifies shadow state.
//
// The mechanisms (switching-bit placement, write interception, shadow
// zapping) live in package vmm; this package supplies the decisions.
package core

import (
	"fmt"
	"sort"
	"strings"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/vmm"
)

// RevertPolicy selects the Nested⇒Shadow policy of paper §III-C.
type RevertPolicy int

// Revert policies.
const (
	// RevertNone never converts nested parts back to shadow mode.
	RevertNone RevertPolicy = iota
	// RevertReset moves every nested part back to shadow mode at each
	// interval (the paper's "first simple online policy").
	RevertReset
	// RevertDirtyScan uses host-page-table dirty bits over the guest page
	// table's pages to return only quiescent parts to shadow mode (the
	// paper's "second more complex but effective policy").
	RevertDirtyScan
)

// String names the policy.
func (p RevertPolicy) String() string {
	switch p {
	case RevertNone:
		return "none"
	case RevertReset:
		return "reset"
	case RevertDirtyScan:
		return "dirty-scan"
	}
	return fmt.Sprintf("RevertPolicy(%d)", int(p))
}

// ParseRevertPolicy parses a policy name as written by
// RevertPolicy.String, case insensitively, accepting "dirtyscan" and
// "dirty" as aliases for the dirty-scan policy. It is the one parser every
// flag and JSON decoder in the repository routes through.
func ParseRevertPolicy(s string) (RevertPolicy, error) {
	switch strings.ToLower(s) {
	case "none":
		return RevertNone, nil
	case "reset":
		return RevertReset, nil
	case "dirty-scan", "dirtyscan", "dirty":
		return RevertDirtyScan, nil
	}
	return 0, fmt.Errorf("unknown revert policy %q (none|reset|dirty-scan)", s)
}

// PolicyConfig parameterizes the agile manager.
type PolicyConfig struct {
	// WriteThreshold is the number of intercepted writes to one guest
	// page-table page within an interval that triggers Shadow⇒Nested.
	// The paper uses "a small threshold like the one used in branch
	// predictors": two.
	WriteThreshold int
	// IntervalCycles is the policy interval in simulated cycles (the
	// paper's 1-second interval, scaled to the simulation).
	IntervalCycles uint64
	// Revert selects the Nested⇒Shadow policy.
	Revert RevertPolicy
	// StartNested starts the process fully nested (short-lived-process
	// policy): agile/shadow state is built only if, after StartDelay
	// cycles, TLB-miss overhead exceeds MissOverheadThreshold.
	StartNested           bool
	StartDelayCycles      uint64
	MissOverheadThreshold float64
}

// DefaultPolicy returns the paper's policy settings scaled to simulation
// time.
func DefaultPolicy() PolicyConfig {
	return PolicyConfig{
		WriteThreshold:        2,
		IntervalCycles:        2_000_000,
		Revert:                RevertDirtyScan,
		MissOverheadThreshold: 0.02,
	}
}

// Stats counts manager decisions.
type Stats struct {
	SwitchesToNested uint64 // node conversions Shadow⇒Nested
	SwitchesToShadow uint64 // node conversions Nested⇒Shadow
	IntervalResets   uint64
	DirtyScans       uint64
	AgileEnabled     uint64 // short-lived policy upgrades to agile mode
}

// Manager is the agile paging manager for one guest process. It implements
// vmm.ModeOracle.
type Manager struct {
	ctx *vmm.Context
	cfg PolicyConfig

	nested      map[uint64]bool  // guest table page (gPA) ⇒ handled nested
	writeCounts map[writeKey]int // intercepted writes this interval

	intervalStart uint64
	started       bool // short-lived policy: agile state enabled

	stats Stats
}

// NewManager attaches an agile manager to a VMM context. The context must
// belong to a VM running the agile technique (it needs a shadow table).
func NewManager(ctx *vmm.Context, cfg PolicyConfig) (*Manager, error) {
	if ctx.SPT() == nil {
		return nil, vmm.ErrNotShadowed
	}
	if cfg.WriteThreshold <= 0 {
		cfg.WriteThreshold = 2
	}
	m := &Manager{
		ctx:         ctx,
		cfg:         cfg,
		nested:      make(map[uint64]bool),
		writeCounts: make(map[writeKey]int),
		started:     !cfg.StartNested,
	}
	ctx.SetOracle(m)
	ctx.SetWriteListener(m.onProtectedWrite)
	ctx.SetFreeListener(m.GuestTableFreed)
	if cfg.StartNested {
		ctx.SetFullNested(true)
	}
	return m, nil
}

// Stats returns the accumulated decision counters.
func (m *Manager) Stats() Stats { return m.stats }

// NestedNodes reports how many guest page-table nodes are under nested mode.
func (m *Manager) NestedNodes() int { return len(m.nested) }

// NestedNodesByLevel splits the nested node count by guest page-table
// level (0 = root). Nodes whose table page was freed since the switch are
// skipped; the next interval's bookkeeping drops them. Telemetry samples
// this at epoch boundaries to show shadow-vs-nested coverage over time.
func (m *Manager) NestedNodesByLevel() [4]int {
	var out [4]int
	for page := range m.nested {
		if info, ok := m.ctx.GPT().Info(page); ok && info.Level >= 0 && info.Level < len(out) {
			out[info.Level]++
		}
	}
	return out
}

// NodeNested implements vmm.ModeOracle.
func (m *Manager) NodeNested(asid uint16, gptPage uint64) bool {
	return m.nested[gptPage]
}

// GuestTableFreed implements the policy's half of the shadow-invalidation
// contract: when the guest OS frees a table page, its mode decision and
// pending write counts die with it. Without this, a recycled gPA would
// inherit the freed page's nested bit (the oracle would steer fresh shadow
// fills into planting switches over half-built tables) or its write tally.
func (m *Manager) GuestTableFreed(gptPage uint64) {
	delete(m.nested, gptPage)
	for k := range m.writeCounts {
		if k.page == gptPage {
			delete(m.writeCounts, k)
		}
	}
}

// writeKey identifies the dynamic part a write belongs to. Writes to a
// leaf-level page are attributed to the page (idx -1): the page's PTEs are
// the dynamic part. Writes to an interior entry are attributed to that
// entry: the dynamic part is the subtree under it, not the whole span of
// the interior page — at scaled footprints an entire workload can sit under
// one interior page, so page granularity there would over-convert.
type writeKey struct {
	page uint64
	idx  int
}

// onProtectedWrite implements the Shadow⇒Nested policy: two intercepted
// updates to the same dynamic part of the guest page table within an
// interval move that part — and all levels below it — to nested mode
// (paper §III-C).
func (m *Manager) onProtectedWrite(gptPage uint64, level, idx int, old, new pagetable.Entry) {
	key := writeKey{page: gptPage, idx: -1}
	target := gptPage
	if level < pagetable.NumLevels-1 && !old.Huge() && !new.Huge() {
		// Interior entry: the dynamic part is the child table under it.
		key.idx = idx
		switch {
		case new.Present():
			target = new.Addr()
		case old.Present():
			target = old.Addr()
		default:
			return
		}
		if _, isTable := m.ctx.GPT().Info(target); !isTable {
			return
		}
	}
	m.writeCounts[key]++
	if m.writeCounts[key] >= m.cfg.WriteThreshold {
		m.switchToNested(target)
		delete(m.writeCounts, key)
	}
}

func (m *Manager) switchToNested(gptPage uint64) {
	if m.nested[gptPage] {
		return
	}
	for _, p := range m.ctx.SubtreePages(gptPage) {
		if !m.nested[p] {
			m.nested[p] = true
			m.stats.SwitchesToNested++
		}
	}
	// The policy's nested marks stand even when no switch can be planted
	// (for example, the context has no shadow table).
	_ = m.ctx.PlantSwitch(gptPage)
}

// Tick advances policy time. now is the current simulated cycle count and
// missOverhead the observed fraction of cycles lost to TLB misses since the
// last tick (used by the short-lived-process policy). The machine calls it
// periodically; interval work runs when IntervalCycles have elapsed.
func (m *Manager) Tick(now uint64, missOverhead float64) {
	if !m.started {
		if now >= m.cfg.StartDelayCycles && missOverhead > m.cfg.MissOverheadThreshold {
			m.started = true
			m.ctx.SetFullNested(false)
			m.stats.AgileEnabled++
		}
		return
	}
	if m.cfg.IntervalCycles == 0 || now-m.intervalStart < m.cfg.IntervalCycles {
		return
	}
	m.intervalStart = now
	m.writeCounts = make(map[writeKey]int)
	switch m.cfg.Revert {
	case RevertReset:
		m.revertAll()
	case RevertDirtyScan:
		m.dirtyScan()
	}
}

// Started reports whether agile (partial shadow) operation is enabled — it
// is false while the short-lived policy holds the process fully nested.
func (m *Manager) Started() bool { return m.started }

// revertAll implements the simple periodic-reset policy: every nested node
// returns to shadow mode; the write-threshold policy will re-derive the
// dynamic set.
func (m *Manager) revertAll() {
	m.stats.IntervalResets++
	for _, sp := range m.switchPoints() {
		_ = m.ctx.ClearSwitch(sp)
	}
	m.stats.SwitchesToShadow += uint64(len(m.nested))
	m.nested = make(map[uint64]bool)
}

// dirtyScan implements the dirty-bit policy: guest page-table pages whose
// backing host entries are clean this interval return to shadow mode,
// parents before children; dirty pages stay nested and their dirty bits are
// cleared for the next interval (paper §III-C).
func (m *Manager) dirtyScan() {
	m.stats.DirtyScans++
	hpt := m.ctx.VM().HPT()
	for _, sp := range m.switchPoints() {
		m.scanNode(hpt, sp, true)
	}
}

// scanNode converts node (and recursively its children) back to shadow if
// clean. isSwitchPoint marks nodes whose parent is shadow-handled: those
// carry the switching-bit entry that must be cleared on conversion. A node
// that stays nested while its parent converts becomes a new switch point
// lazily: the next shadow fill consults the oracle and re-plants the bit.
func (m *Manager) scanNode(hpt *pagetable.Table, node uint64, isSwitchPoint bool) {
	r, ok := hpt.TryLookup(node)
	if !ok {
		return
	}
	if r.Entry.Dirty() {
		// Still changing: stays nested; rearm the detector.
		_ = hpt.ClearFlags(node, pagetable.FlagDirty)
		return
	}
	// Quiescent: back to shadow mode.
	delete(m.nested, node)
	m.stats.SwitchesToShadow++
	if isSwitchPoint {
		_ = m.ctx.ClearSwitch(node)
	} else {
		m.ctx.Protect(node)
	}
	for _, child := range m.childTablePages(node) {
		if m.nested[child] {
			m.scanNode(hpt, child, false)
		}
	}
}

// switchPoints returns the topmost nested nodes (nested nodes whose parent
// is shadow-handled), parents before children, which are exactly the nodes
// carrying switching-bit entries.
func (m *Manager) switchPoints() []uint64 {
	type nodeInfo struct {
		page  uint64
		level int
	}
	var sps []nodeInfo
	for page := range m.nested {
		info, ok := m.ctx.GPT().Info(page)
		if !ok {
			delete(m.nested, page) // table page was freed
			continue
		}
		parent, hasParent := m.parentPage(info)
		if !hasParent || !m.nested[parent] {
			sps = append(sps, nodeInfo{page, info.Level})
		}
	}
	sort.Slice(sps, func(i, j int) bool {
		if sps[i].level != sps[j].level {
			return sps[i].level < sps[j].level
		}
		return sps[i].page < sps[j].page
	})
	out := make([]uint64, len(sps))
	for i, sp := range sps {
		out[i] = sp.page
	}
	return out
}

// parentPage returns the guest-physical address of the table page holding
// the entry that points at the given node.
func (m *Manager) parentPage(info pagetable.PageInfo) (uint64, bool) {
	if info.Level == 0 {
		return 0, false
	}
	if info.Level == 1 {
		return m.ctx.GPT().Root(), true
	}
	e, err := m.ctx.GPT().EntryAt(info.VABase, info.Level-2)
	if err != nil || !e.Present() {
		return 0, false
	}
	return e.Addr(), true
}

// childTablePages lists the table pages directly below node.
func (m *Manager) childTablePages(node uint64) []uint64 {
	var out []uint64
	for _, p := range m.ctx.SubtreePages(node) {
		if p == node {
			continue
		}
		info, ok := m.ctx.GPT().Info(p)
		if !ok {
			continue
		}
		nodeInfo, _ := m.ctx.GPT().Info(node)
		if info.Level == nodeInfo.Level+1 {
			out = append(out, p)
		}
	}
	return out
}
