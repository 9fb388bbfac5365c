package perfmodel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestComputeOverheads(t *testing.T) {
	m := Measured{ExecCycles: 1500, TLBMissCycles: 300, HypervisorCycles: 200}
	o, err := Compute(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(o.PageWalk, 0.3) {
		t.Errorf("PageWalk = %v", o.PageWalk)
	}
	if !almostEqual(o.VMM, 0.2) {
		t.Errorf("VMM = %v", o.VMM)
	}
	if !almostEqual(o.Total(), 0.5) {
		t.Errorf("Total = %v", o.Total())
	}
	// Zero ideal used to silently produce zero Overheads — a plausible
	// "0% overhead" from malformed input. It must error now.
	if _, err := Compute(m, 0); !errors.Is(err, ErrZeroIdeal) {
		t.Errorf("Compute with zero ideal: err = %v, want ErrZeroIdeal", err)
	}
	// Hypervisor cycles exceeding the gap clamp page-walk overhead at 0
	// (this clamp is legitimate: rounding can push H past E − E_ideal).
	o, err = Compute(Measured{ExecCycles: 1100, HypervisorCycles: 200}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if o.PageWalk != 0 {
		t.Errorf("clamped PageWalk = %v", o.PageWalk)
	}
	if !almostEqual(o.VMM, 0.2) {
		t.Errorf("clamped-branch VMM = %v", o.VMM)
	}
}

func TestCyclesPerMiss(t *testing.T) {
	if got := CyclesPerMiss(Measured{TLBMissCycles: 900, TLBMisses: 30}); got != 30 {
		t.Errorf("CyclesPerMiss = %v", got)
	}
	if CyclesPerMiss(Measured{}) != 0 {
		t.Error("zero misses")
	}
}

func TestNestedFractionsSum(t *testing.T) {
	f := NestedFractions{0, 0.1, 0.2, 0.0, 0.05}
	if !almostEqual(f.Sum(), 0.35) {
		t.Errorf("Sum = %v", f.Sum())
	}
}

// TestProjectWalkBounds: the agile projection must lie between pure shadow
// and pure nested costs for any fraction split.
func TestProjectWalkBounds(t *testing.T) {
	const cN, cS = 24 * 40.0, 4 * 40.0
	const misses, ideal = 1_000, 1_000_000
	shadowOnly := ProjectWalkOverhead(cN, cS, NestedFractions{}, misses, ideal)
	nestedOnly := ProjectWalkOverhead(cN, cS, NestedFractions{0, 0, 0, 0, 1}, misses, ideal)
	if !almostEqual(shadowOnly, cS*misses/ideal) {
		t.Errorf("shadow-only projection = %v", shadowOnly)
	}
	if !almostEqual(nestedOnly, cN*misses/ideal) {
		t.Errorf("nested-only projection = %v", nestedOnly)
	}
	err := quick.Check(func(a, b, c, d uint8) bool {
		tot := float64(a) + float64(b) + float64(c) + float64(d)
		if tot == 0 {
			return true
		}
		// Random split scaled to sum <= 1.
		scale := 1 / math.Max(tot, 255)
		f := NestedFractions{0, float64(a) * scale, float64(b) * scale, float64(c) * scale, float64(d) * scale}
		p := ProjectWalkOverhead(cN, cS, f, misses, ideal)
		return p >= shadowOnly-1e-9 && p <= nestedOnly+1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestProjectWalkHalfCostAtTopLevel(t *testing.T) {
	// Per the paper's conservative assumption, F_N1 pays (C_N+C_S)/2.
	const cN, cS = 100.0, 10.0
	got := ProjectWalkOverhead(cN, cS, NestedFractions{0, 1, 0, 0, 0}, 10, 100)
	want := (cN + cS) * 0.5 * 10 / 100
	if !almostEqual(got, want) {
		t.Errorf("F_N1 projection = %v, want %v", got, want)
	}
}

func TestProjectVMMOverhead(t *testing.T) {
	if got := ProjectVMMOverhead(0.5, 300_000, 1_000_000); !almostEqual(got, 0.2) {
		t.Errorf("VMM projection = %v", got)
	}
	// Cannot go negative.
	if got := ProjectVMMOverhead(0.1, 1_000_000, 1_000_000); got != 0 {
		t.Errorf("negative projection = %v", got)
	}
	if ProjectVMMOverhead(0.5, 1, 0) != 0 {
		t.Error("zero ideal")
	}
}

func TestProjectAgileCombines(t *testing.T) {
	nested := Measured{ExecCycles: 2_000_000, TLBMissCycles: 960_000, TLBMisses: 1000}
	shadow := Measured{ExecCycles: 1_700_000, TLBMissCycles: 160_000, TLBMisses: 1000, HypervisorCycles: 500_000}
	ideal := uint64(1_000_000)
	// 90% of misses full shadow, 10% switch at the leaf.
	f := NestedFractions{0, 0, 0, 0, 0.1}
	o, err := ProjectAgile(nested, shadow, ideal, f, 1000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	sOv, err := Compute(shadow, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if o.VMM >= sOv.VMM {
		t.Errorf("agile VMM %v should beat shadow %v", o.VMM, sOv.VMM)
	}
	nOv, err := Compute(nested, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if o.PageWalk >= nOv.PageWalk {
		t.Errorf("agile walk %v should beat nested %v", o.PageWalk, nOv.PageWalk)
	}
	if o.Total() <= 0 {
		t.Error("empty projection")
	}
	// The zero-ideal error propagates through the combined projection.
	if _, err := ProjectAgile(nested, shadow, 0, f, 1000, 400_000); !errors.Is(err, ErrZeroIdeal) {
		t.Errorf("ProjectAgile with zero ideal: err = %v, want ErrZeroIdeal", err)
	}
}
