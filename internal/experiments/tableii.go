package experiments

import (
	"context"
	"fmt"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
)

// TableIIRow is one row of paper Table II / one configuration of Figure 3:
// the memory references of a single virtualized walk at each degree of
// nesting.
type TableIIRow struct {
	Degree string // "shadow", "switch@L4".."switch@L1", "nested"
	// NestedLevels is the number of guest levels handled nested (0..4; 4
	// with GptrTranslated for full nested).
	NestedLevels int
	Refs         int
	// Accesses is the chronological reference trace (Figure 1/3 arrows).
	Accesses []walker.Access
}

// degreeFixture builds one VM + process with a single mapped page and the
// requested agile configuration, then performs one recorded hardware walk.
func degreeFixture(nestedLevels int, fullNested bool) (TableIIRow, error) {
	mem := memsim.New(256 << 20)
	cfg := vmm.DefaultConfig(walker.ModeAgile)
	cfg.RAMBytes = 64 << 20
	vm, err := vmm.New(mem, vmm.NopMMU{}, 1, cfg)
	if err != nil {
		return TableIIRow{}, err
	}
	ctx, err := vm.NewProcess(1)
	if err != nil {
		return TableIIRow{}, err
	}
	gva := uint64(0x7f12_3456_7000)
	gpa, err := vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		return TableIIRow{}, err
	}
	if err := ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
		return TableIIRow{}, err
	}

	switch {
	case fullNested:
		ctx.SetFullNested(true)
	case nestedLevels == 0:
		if _, err := ctx.HandleShadowFault(gva, false); err != nil {
			return TableIIRow{}, err
		}
	default:
		// The node with 4-d trailing nested levels sits at level 4-d.
		nodeLevel := 4 - nestedLevels
		var node uint64
		if nodeLevel == 0 {
			node = ctx.GPT().Root()
		} else {
			e, err := ctx.GPT().EntryAt(gva, nodeLevel-1)
			if err != nil {
				return TableIIRow{}, err
			}
			node = e.Addr()
		}
		// Shadow-cover the upper levels first, then plant the switch.
		if _, err := ctx.HandleShadowFault(gva, false); err != nil {
			return TableIIRow{}, err
		}
		if err := ctx.PlantSwitch(node); err != nil {
			return TableIIRow{}, err
		}
	}

	w := walker.New(mem, nil, nil)
	w.SetRecording(true)
	res, fault := w.Walk(ctx.Regs(), gva, false)
	if fault != nil {
		return TableIIRow{}, fmt.Errorf("experiments: degree %d walk faulted: %w", nestedLevels, fault)
	}
	return TableIIRow{
		NestedLevels: res.NestedLevels,
		Refs:         res.Refs,
		Accesses:     res.Accesses,
	}, nil
}

// degreeSpec selects one walk fixture of Table II.
type degreeSpec struct {
	nested     int
	fullNested bool
}

// TableIISweep reproduces paper Table II (and the access sequences of
// Figure 3): the number of memory references with each degree of nesting,
// from full shadow (4) through the four switch levels (8, 12, 16, 20) to
// full nested (24). It runs one sweep job per degree of nesting, each
// building its own VM fixture.
func TableIISweep(ctx context.Context, cfg sweep.Config) ([]TableIIRow, error) {
	degrees := []struct {
		name string
		spec degreeSpec
	}{
		{"shadow only", degreeSpec{0, false}},
		{"switched at 4th level", degreeSpec{1, false}},
		{"switched at 3rd level", degreeSpec{2, false}},
		{"switched at 2nd level", degreeSpec{3, false}},
		{"switched at 1st level", degreeSpec{4, false}},
		{"nested only", degreeSpec{4, true}},
	}
	jobs := make([]sweep.Job[degreeSpec], 0, len(degrees))
	for _, d := range degrees {
		jobs = append(jobs, sweep.Job[degreeSpec]{Key: d.name, Options: d.spec})
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[degreeSpec]) (TableIIRow, error) {
		row, err := degreeFixture(j.Options.nested, j.Options.fullNested)
		if err != nil {
			return TableIIRow{}, fmt.Errorf("%s: %w", j.Key, err)
		}
		row.Degree = j.Key
		return row, nil
	})
	rows, _ := partialOutcome(jobs, out)
	return rows, out.Err
}

// WalkTraces reproduces the numbered access sequences of paper Figure 1:
// one recorded walk per technique (native, nested, shadow, and agile with
// the leaf level nested — the blue escape path of Figure 1d).
func WalkTraces() (map[string][]walker.Access, error) {
	out := make(map[string][]walker.Access)

	// Native.
	mem := memsim.New(64 << 20)
	pt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		return nil, err
	}
	if err := pt.Map(0x7f00_0000_0000, 0xabc000, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		return nil, err
	}
	w := walker.New(mem, nil, nil)
	w.SetRecording(true)
	res, fault := w.Walk(walker.Regs{Mode: walker.ModeNative, Root: pt.Root()}, 0x7f00_0000_0000, false)
	if fault != nil {
		return nil, fault
	}
	out["native"] = res.Accesses

	// Virtualized techniques from the Table II fixtures.
	shadow, err := degreeFixture(0, false)
	if err != nil {
		return nil, err
	}
	out["shadow"] = shadow.Accesses
	nested, err := degreeFixture(4, true)
	if err != nil {
		return nil, err
	}
	out["nested"] = nested.Accesses
	agile, err := degreeFixture(1, false)
	if err != nil {
		return nil, err
	}
	out["agile"] = agile.Accesses
	return out, nil
}
