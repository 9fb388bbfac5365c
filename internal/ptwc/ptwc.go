// Package ptwc models the MMU translation-acceleration structures the paper
// accounts for: Intel-style page walk caches (PWCs) that skip upper levels
// of a walk, and the nested TLB that caches gPA⇒hPA translations during 2D
// walks (paper §II-A, §III-A "Page Walk Caches").
//
// The agile-paging extension from the paper is included: every PWC entry
// carries one extra bit recording whether the cached pointer refers to a
// shadow page table page or a guest page table page, so an agile walk can
// resume in the correct mode.
package ptwc

import (
	"fmt"

	"agilepaging/internal/setassoc"
)

// entry is the payload of one PWC or nested TLB line: a host-physical
// pointer plus one bit. In the PWC the bit is the agile extension (the
// pointer is into the guest page table); in the nested TLB it is the host
// write permission.
type entry struct {
	ptr uint64
	bit bool
}

// array is one set-associative cache of entries. Its lines are never
// global: every match requires the owning ASID (or VMID).
type array = setassoc.Array[entry]

// Config sizes the three PWC arrays, indexed by the number of levels the
// entry lets the walk skip (1, 2, or 3). Defaults mirror the three partial
// translation tables in Intel parts (paper §III-A, [15, 21]).
type Config struct {
	Entries [3]int // skip-1, skip-2, skip-3 arrays
	Ways    int
}

// DefaultConfig returns a PWC geometry in line with published MMU-cache
// sizes (Barr et al., Bhattacharjee): 3 arrays of 32 entries, 4-way.
func DefaultConfig() Config {
	return Config{Entries: [3]int{32, 32, 32}, Ways: 4}
}

// Stats counts PWC events.
type Stats struct {
	Lookups uint64
	Hits    uint64
	// HitDepth[d] counts hits that skipped d+1 levels.
	HitDepth [3]uint64
}

// PWC is a set of page walk caches covering skip depths 1..3.
type PWC struct {
	arrays [3]*array // index d => skip d+1 levels
	stats  Stats
}

// New builds the PWC from cfg.
func New(cfg Config) *PWC {
	p := &PWC{}
	for d := 0; d < 3; d++ {
		p.arrays[d] = setassoc.New[entry](cfg.Entries[d], cfg.Ways)
	}
	return p
}

// tagFor computes the tag covering walk levels 0..skip-1 of va.
func tagFor(va uint64, skip int) uint64 {
	return va >> (48 - 9*uint(skip))
}

// Lookup returns the deepest cached partial translation for va: ptr is the
// host-physical address of the table page at level `level` (so levels
// 0..level-1 are skipped), and nested reports whether that page belongs to
// the guest page table (resume in nested mode) or the shadow/native table.
func (p *PWC) Lookup(asid uint16, va uint64) (ptr uint64, level int, nested, ok bool) {
	p.stats.Lookups++
	for d := 2; d >= 0; d-- {
		if e, ok := p.arrays[d].Lookup(asid, tagFor(va, d+1)); ok {
			p.stats.Hits++
			p.stats.HitDepth[d]++
			return e.ptr, d + 1, e.bit, true
		}
	}
	return 0, 0, false, false
}

// Insert caches ptr as the table page reached after walking levels
// 0..level-1 of va. level must be 1..3.
func (p *PWC) Insert(asid uint16, va uint64, level int, ptr uint64, nested bool) {
	if level < 1 || level > 3 {
		panic(fmt.Sprintf("ptwc: invalid insert level %d", level))
	}
	p.arrays[level-1].Insert(asid, tagFor(va, level), false, entry{ptr: ptr, bit: nested})
}

// InvalidateVA drops all partial translations covering va for asid, as the
// VMM must when it changes the mode or structure of upper-level entries.
func (p *PWC) InvalidateVA(asid uint16, va uint64) {
	for d := 0; d < 3; d++ {
		p.arrays[d].Invalidate(asid, tagFor(va, d+1))
	}
}

// FlushASID drops all entries of one address space.
func (p *PWC) FlushASID(asid uint16) {
	for d := 0; d < 3; d++ {
		p.arrays[d].Flush(asid, false, false)
	}
}

// FlushAll empties the PWC.
func (p *PWC) FlushAll() {
	for d := 0; d < 3; d++ {
		p.arrays[d].Flush(0, true, false)
	}
}

// Stats returns the accumulated counters.
func (p *PWC) Stats() Stats { return p.stats }

// ResetStats zeroes the counters.
func (p *PWC) ResetStats() { p.stats = Stats{} }

// Reset restores the PWC to its post-construction state: all arrays
// emptied with their LRU clocks rewound, statistics zeroed.
func (p *PWC) Reset() {
	for d := 0; d < 3; d++ {
		p.arrays[d].Reset()
	}
	p.stats = Stats{}
}
