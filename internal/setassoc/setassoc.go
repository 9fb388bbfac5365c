// Package setassoc is the one set-associative, LRU-replaced array behind
// every translation cache of the simulated MMU: the L1/L2 TLB arrays
// (package tlb), the skip-level page walk caches and the nested TLB
// (package ptwc). Each cache differs only in how it forms a tag and what it
// stores per entry, so the array is generic over the payload V.
//
// Replacement is deterministic and the same for every user. A probe scans
// the ways of one set in order and stops at the first way that is invalid
// or matches; otherwise the victim is the way with the lowest last-use
// stamp, ties going to the lowest way. Stamps come from a per-array clock
// that advances on every Insert and on every Lookup of a non-empty array.
//
// A Lookup, Invalidate or Flush on an array with no valid line returns at
// once, without advancing the clock. That is exact: a probe of an empty
// array stamps nothing, and the clock only orders the stamps of one array
// relative to one another, so skipping its advance there cannot change any
// later victim choice.
package setassoc

// line is one cached entry.
type line[V any] struct {
	valid   bool
	global  bool // matches every ASID and survives a keepGlobal flush
	asid    uint16
	tag     uint64
	lastUse uint64
	v       V
}

// Array is a set-associative cache of payloads V keyed by (ASID, tag).
type Array[V any] struct {
	sets  int
	ways  int
	lines []line[V] // sets*ways, row-major by set
	clock uint64
	live  int // number of valid lines

	// Set counts are powers of two for every realistic geometry, letting
	// the set index be a mask instead of a division; the modulo fallback
	// keeps odd geometries working.
	setMask  uint64 // sets-1 when sets is a power of two
	setsPow2 bool
}

// New builds an array with the given total entries and associativity.
// Both are clamped to at least 1, and ways > entries degenerates into a
// fully-associative array of entries ways.
func New[V any](entries, ways int) *Array[V] {
	entries = max(entries, 1)
	ways = min(max(ways, 1), entries)
	sets := entries / ways
	a := &Array[V]{sets: sets, ways: ways, lines: make([]line[V], sets*ways)}
	if sets&(sets-1) == 0 {
		a.setsPow2 = true
		a.setMask = uint64(sets - 1)
	}
	return a
}

func (a *Array[V]) set(tag uint64) []line[V] {
	var s int
	if a.setsPow2 {
		s = int(tag & a.setMask)
	} else {
		s = int(tag % uint64(a.sets))
	}
	return a.lines[s*a.ways : (s+1)*a.ways]
}

// Len returns the number of valid lines. Callers with several arrays to
// probe skip the empty ones without a call into Lookup.
func (a *Array[V]) Len() int { return a.live }

func (l *line[V]) matches(asid uint16, tag uint64) bool {
	return l.valid && l.tag == tag && (l.global || l.asid == asid)
}

// Lookup probes for tag in address space asid. On a hit it refreshes the
// entry's LRU stamp and returns its payload.
func (a *Array[V]) Lookup(asid uint16, tag uint64) (v V, ok bool) {
	if a.live == 0 {
		return v, false
	}
	a.clock++
	set := a.set(tag)
	for i := range set {
		l := &set[i]
		if l.matches(asid, tag) {
			l.lastUse = a.clock
			return l.v, true
		}
	}
	return v, false
}

// Insert fills (asid, tag) with v, refreshing a matching entry in place or
// else taking the first invalid way or the LRU way of the set.
func (a *Array[V]) Insert(asid uint16, tag uint64, global bool, v V) {
	a.clock++
	set := a.set(tag)
	victim := 0
	for i := range set {
		l := &set[i]
		if l.matches(asid, tag) || !l.valid {
			victim = i
			break
		}
		if l.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if !set[victim].valid {
		a.live++
	}
	set[victim] = line[V]{valid: true, global: global, asid: asid, tag: tag, lastUse: a.clock, v: v}
}

// Invalidate drops any entry matching (asid, tag).
func (a *Array[V]) Invalidate(asid uint16, tag uint64) {
	if a.live == 0 {
		return
	}
	set := a.set(tag)
	for i := range set {
		if set[i].matches(asid, tag) {
			set[i].valid = false
			a.live--
		}
	}
}

// Flush drops the entries of asid, or every entry if all. If keepGlobal,
// global entries survive (a CR3 write without a PGE flush).
func (a *Array[V]) Flush(asid uint16, all, keepGlobal bool) {
	if a.live == 0 {
		return
	}
	for i := range a.lines {
		l := &a.lines[i]
		if l.valid && (all || l.asid == asid) && !(keepGlobal && l.global) {
			l.valid = false
			a.live--
		}
	}
}

// Reset restores the array to its post-construction state: every line
// invalid and zeroed, the LRU clock at zero. Rewinding the clock (not just
// validity) makes replacement after a reset replay exactly as on a fresh
// array.
func (a *Array[V]) Reset() {
	clear(a.lines)
	a.clock = 0
	a.live = 0
}
