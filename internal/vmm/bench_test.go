package vmm

import (
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// benchContext builds a shadow-paged VM with one process whose guest table
// maps pages 4K pages from base, each to its own guest-physical page.
func benchContext(b *testing.B, pages int) (*Context, uint64, []uint64) {
	b.Helper()
	cfg := DefaultConfig(walker.ModeShadow)
	cfg.RAMBytes = 64 << 20
	vm, err := New(memsim.New(512<<20), NopMMU{}, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := vm.NewProcess(1)
	if err != nil {
		b.Fatal(err)
	}
	const base = uint64(0x4000_0000)
	gpas := make([]uint64, pages)
	for i := range gpas {
		if gpas[i], err = vm.AllocGPA(pagetable.Size4K); err != nil {
			b.Fatal(err)
		}
		if err := ctx.GPT().Map(base+uint64(i)<<12, gpas[i], pagetable.Size4K, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
			b.Fatal(err)
		}
	}
	return ctx, base, gpas
}

// benchFound defeats dead-code elimination.
var benchFound bool

// BenchmarkGuestTableLookup measures a software lookup in a guest page
// table: four levels, each resolving a guest-physical table page to its
// host frame through guestPhysSpace, as the VMM does on every shadow fill
// and guest page-table write it services.
func BenchmarkGuestTableLookup(b *testing.B) {
	ctx, base, _ := benchContext(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchFound = ctx.GPT().TryLookup(base + uint64(i&63)<<12)
	}
	if !benchFound {
		b.Fatal("lookup missed")
	}
}

// BenchmarkShadowFill measures one shadow-fill VM exit: the guest-table
// walk, the host lookup, the shadow leaf write and the sibling prefetch.
// Each iteration then zaps the filled leaves through the host-remap path
// so the next fill starts from the same empty state.
func BenchmarkShadowFill(b *testing.B) {
	ctx, base, gpas := benchContext(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.HandleShadowFault(base, false); err != nil {
			b.Fatal(err)
		}
		ctx.hostPageChanged(gpas[0])
	}
}
