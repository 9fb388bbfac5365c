package ptwc

import "testing"

// benchHit defeats dead-code elimination.
var benchHit bool

// BenchmarkPWCLookup measures a depth-3 hit: the deepest array answers
// first, the common case on a TLB miss inside a warm 2M region.
func BenchmarkPWCLookup(b *testing.B) {
	p := New(DefaultConfig())
	va := uint64(0x7f12_3456_7000)
	p.Insert(1, va, 3, 0x3000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, benchHit = p.Lookup(1, va)
	}
	if !benchHit {
		b.Fatal("lookup missed")
	}
}

// BenchmarkPWCLookupMiss measures a miss in all three arrays, the fixed
// probe cost before a full-length walk.
func BenchmarkPWCLookupMiss(b *testing.B) {
	p := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, benchHit = p.Lookup(1, uint64(i)<<21)
	}
}

// BenchmarkNestedTLBLookup measures a nested TLB hit, which replaces the
// host-table references of one guest-physical pointer in a 2D walk.
func BenchmarkNestedTLBLookup(b *testing.B) {
	n := NewNestedTLB(16, 4)
	gpa := uint64(0x1234_5000)
	n.Insert(1, gpa, 0xabc000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, benchHit = n.Lookup(1, gpa)
	}
	if !benchHit {
		b.Fatal("lookup missed")
	}
}
