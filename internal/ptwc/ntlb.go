package ptwc

import "agilepaging/internal/setassoc"

// NestedTLB caches gPA⇒hPA page translations consumed inside 2D page walks
// (paper §II-A: AMD's nested TLB / Intel's EPT cache, [19, 20]). A hit
// removes the up-to-4 host-table references otherwise needed to translate a
// guest-physical pointer during a nested or agile walk.
type NestedTLB struct {
	arr   *array
	stats Stats
}

// NewNestedTLB builds a nested TLB with the given capacity and
// associativity. Published designs use small structures (16-32 entries).
func NewNestedTLB(entries, ways int) *NestedTLB {
	return &NestedTLB{arr: setassoc.New[entry](entries, ways)}
}

// Lookup probes for the host-physical base of the guest-physical page
// containing gpa. vmid tags entries per virtual machine. writable carries
// the host page table's write permission so write accesses can detect
// host-level copy-on-write protection without a walk.
func (n *NestedTLB) Lookup(vmid uint16, gpa uint64) (hpaBase uint64, writable, ok bool) {
	n.stats.Lookups++
	e, ok := n.arr.Lookup(vmid, gpa>>12)
	if ok {
		n.stats.Hits++
	}
	return e.ptr, e.bit, ok
}

// Insert caches the translation of the 4K guest-physical page containing
// gpa to host-physical base hpaBase with the host write permission.
func (n *NestedTLB) Insert(vmid uint16, gpa, hpaBase uint64, writable bool) {
	n.arr.Insert(vmid, gpa>>12, false, entry{ptr: hpaBase, bit: writable})
}

// InvalidateGPA drops the entry for the guest-physical page containing gpa,
// required when the VMM changes the host page table.
func (n *NestedTLB) InvalidateGPA(vmid uint16, gpa uint64) {
	n.arr.Invalidate(vmid, gpa>>12)
}

// FlushAll empties the nested TLB.
func (n *NestedTLB) FlushAll() { n.arr.Flush(0, true, false) }

// Stats returns the accumulated counters.
func (n *NestedTLB) Stats() Stats { return n.stats }

// ResetStats zeroes the counters.
func (n *NestedTLB) ResetStats() { n.stats = Stats{} }

// Reset restores the nested TLB to its post-construction state: array
// emptied with its LRU clock rewound, statistics zeroed.
func (n *NestedTLB) Reset() {
	n.arr.Reset()
	n.stats = Stats{}
}
