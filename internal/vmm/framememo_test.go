package vmm

import (
	"math/rand"
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// uncachedFrameFor is guestPhysSpace.FrameFor without the frame memo: a
// fresh host walk and the table check.
func uncachedFrameFor(vm *VM, gpa uint64) (memsim.Frame, bool) {
	hpa, _, ok := vm.translateGPA(gpa)
	if !ok {
		return 0, false
	}
	f := memsim.FrameOf(hpa)
	if !vm.mem.IsTable(f) {
		return 0, false
	}
	return f, true
}

// soleOwner returns the first page of gpas whose host frame is a data frame
// that no other page of gpas maps, gpa included: a partner whose frame page
// sharing can reclaim.
func soleOwner(vm *VM, gpas []uint64, gpa uint64) (uint64, bool) {
	owners := make(map[uint64]map[uint64]bool)
	for _, g := range gpas {
		h, _, _ := vm.translateGPA(g)
		if owners[h] == nil {
			owners[h] = make(map[uint64]bool)
		}
		owners[h][g] = true
	}
	ha, _, _ := vm.translateGPA(gpa)
	for _, g := range gpas {
		h, _, _ := vm.translateGPA(g)
		if h != ha && len(owners[h]) == 1 && !vm.mem.IsTable(memsim.FrameOf(h)) {
			return g, true
		}
	}
	return 0, false
}

func checkFrameFor(t *testing.T, vm *VM, step string, gpas []uint64) {
	t.Helper()
	gs := guestPhysSpace{vm}
	for _, gpa := range gpas {
		f, ok := gs.FrameFor(gpa)
		wf, wok := uncachedFrameFor(vm, gpa)
		if f != wf || ok != wok {
			t.Fatalf("%s: FrameFor(%#x) = %d/%v, uncached %d/%v", step, gpa, f, ok, wf, wok)
		}
	}
}

// TestFrameMemoMatchesUncached runs seeded random mixes of guest table
// allocation and free, data-page allocation, page sharing, host
// copy-on-write and VM resets, and after every step requires FrameFor to
// agree with an uncached walk for every guest page handed out since the
// last reset. Each run hands out several hundred pages, so entries of the
// 256-entry memo collide often.
func TestFrameMemoMatchesUncached(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vm, _ := newTestVM(t, walker.ModeShadow)
		gs := guestPhysSpace{vm}
		var tables, all []uint64
		pick := func() uint64 { return all[rng.Intn(len(all))] }
		for step := 0; step < 3000; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 25:
				what = "alloc table"
				gpa, err := gs.AllocTablePage()
				if err != nil {
					t.Fatal(err)
				}
				tables = append(tables, gpa)
				all = append(all, gpa)
			case op < 35:
				what = "free table"
				if len(tables) == 0 {
					continue
				}
				i := rng.Intn(len(tables))
				if err := gs.FreeTablePage(tables[i]); err != nil {
					t.Fatal(err)
				}
				tables = append(tables[:i], tables[i+1:]...)
			case op < 50:
				what = "alloc data"
				gpa, err := vm.AllocGPA(pagetable.Size4K)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, gpa)
			case op < 65:
				what = "lookups"
				if len(all) == 0 {
					continue
				}
				for i := 0; i < 8; i++ {
					gs.FrameFor(pick())
				}
			case op < 77:
				// Either page may be a table: sharing refuses to reclaim a
				// table frame but may point a data page at one. Pages that
				// already share a frame are not a content match to merge.
				what = "dedup"
				if len(all) < 2 {
					continue
				}
				a, b := pick(), pick()
				ha, _, _ := vm.translateGPA(a)
				hb, _, _ := vm.translateGPA(b)
				if ha == hb {
					continue
				}
				_ = vm.DedupPages(a, b)
			case op < 92:
				what = "host COW"
				if len(all) == 0 {
					continue
				}
				gpa := pick()
				partner, ok := soleOwner(vm, all, gpa)
				if !ok {
					continue
				}
				// Sharing gpa's frame with the partner write-protects
				// gpa; the write fault then breaks the sharing. Sharing
				// keeps no reference counts, so an earlier dedup step may
				// already have reclaimed the partner's frame: a failed
				// reclaim is tolerated as in that step.
				gs.FrameFor(gpa)
				_ = vm.DedupPages(gpa, partner)
				if err := vm.HandleHostFault(gpa, true); err != nil {
					t.Fatal(err)
				}
			case op < 99:
				what = "touch all"
				for _, gpa := range all {
					gs.FrameFor(gpa)
				}
			default:
				what = "reset"
				vm.mem.Reset()
				if err := vm.Reset(vm.Config()); err != nil {
					t.Fatal(err)
				}
				tables, all = tables[:0], all[:0]
			}
			checkFrameFor(t, vm, what, all)
		}
	}
}

// TestFrameMemoAfterRemap: a host remap moves a guest page the memo has
// just resolved. FrameFor must then answer as an uncached walk does: after
// a host copy-on-write of a guest table page (whose copy is no longer a
// table frame) or of a data page the guest later recycles as a table page.
func TestFrameMemoAfterRemap(t *testing.T) {
	// cow shares gpa's frame with a fresh data page, which write-protects
	// gpa's host mapping, then breaks the sharing with a guest write.
	cow := func(t *testing.T, vm *VM, gpa uint64) {
		t.Helper()
		partner, err := vm.AllocGPA(pagetable.Size4K)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.DedupPages(gpa, partner); err != nil {
			t.Fatal(err)
		}
		if err := vm.HandleHostFault(gpa, true); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("table page", func(t *testing.T) {
		vm, _ := newTestVM(t, walker.ModeShadow)
		gs := guestPhysSpace{vm}
		gpa, err := gs.AllocTablePage()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := gs.FrameFor(gpa); !ok {
			t.Fatal("fresh table page not resolved")
		}
		cow(t, vm, gpa)
		checkFrameFor(t, vm, "after host COW", []uint64{gpa})
	})
	t.Run("recycled data page", func(t *testing.T) {
		vm, _ := newTestVM(t, walker.ModeShadow)
		gs := guestPhysSpace{vm}
		gpa, err := vm.AllocGPA(pagetable.Size4K)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := gs.FrameFor(gpa); ok {
			t.Fatal("data page resolved as a table")
		}
		cow(t, vm, gpa)
		vm.FreeGPA(gpa, pagetable.Size4K)
		if got, err := gs.AllocTablePage(); err != nil || got != gpa {
			t.Fatalf("AllocTablePage = %#x, %v; want the recycled %#x", got, err, gpa)
		}
		checkFrameFor(t, vm, "after recycle", []uint64{gpa})
		if _, ok := gs.FrameFor(gpa); !ok {
			t.Error("recycled table page not resolved")
		}
	})
}
