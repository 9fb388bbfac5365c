package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// The golden-equivalence test pins the simulator's observable outputs —
// every counter and derived overhead of Figure 5, Table II, and Table VI —
// to values captured before the PR 2 hot-path optimizations. Optimizations
// must be observably pure: same seeds in, bit-identical counters out. Run
// with -update only when a PR intentionally changes simulated behaviour.
var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

const (
	goldenAccesses = 30_000
	goldenSeed     = 42
	goldenFile     = "testdata/golden_pr2.json"
)

// goldenFigure5Row records one Figure 5 bar. Overheads are stored as
// math.Float64bits so JSON round-tripping cannot lose precision: equality
// means bit identity, not approximate equality.
type goldenFigure5Row struct {
	Workload  string
	PageSize  string
	Technique string

	WalkOvBits uint64
	VMMOvBits  uint64

	Accesses        uint64
	Writes          uint64
	TLBMisses       uint64
	WalkRefs        uint64
	GuestPageFaults uint64
	WriteProtFaults uint64
	CtxSwitches     uint64

	IdealCycles uint64
	WalkCycles  uint64
	VMMCycles   uint64

	TLBLookups uint64
	TLBL1Hits  uint64
	TLBL2Hits  uint64

	WalkerWalks    uint64
	WalkerRefs     uint64
	ByNestedLevels [5]uint64
	FullNested     uint64

	RefsP50 int
	RefsP95 int
	RefsMax int
}

// goldenTableIIRow records one Table II walk with its full reference trace.
type goldenTableIIRow struct {
	Degree       string
	NestedLevels int
	Refs         int
	Accesses     []walker.Access
}

// goldenTableVIRow records one Table VI row, fractions as Float64bits.
type goldenTableVIRow struct {
	Workload      string
	FractionsBits [6]uint64
	AvgRefsBits   uint64
}

type goldenData struct {
	Accesses int
	Seed     int64
	Figure5  []goldenFigure5Row
	Headline [4]uint64 // geomean bits: best4K, native4K, best2M, native2M
	TableII  []goldenTableIIRow
	TableVI  []goldenTableVIRow
}

// captureGolden runs the three experiments and converts their results.
func captureGolden(t *testing.T) goldenData {
	t.Helper()
	g := goldenData{Accesses: goldenAccesses, Seed: goldenSeed}

	f5, err := Figure5Sweep(context.Background(), sweep.Config{}, nil, goldenAccesses, goldenSeed)
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	for _, r := range f5.Rows {
		rep := r.Report
		g.Figure5 = append(g.Figure5, goldenFigure5Row{
			Workload:        r.Workload,
			PageSize:        r.PageSize.String(),
			Technique:       r.Technique.String(),
			WalkOvBits:      math.Float64bits(r.WalkOv),
			VMMOvBits:       math.Float64bits(r.VMMOv),
			Accesses:        rep.Accesses,
			Writes:          rep.Writes,
			TLBMisses:       rep.TLBMisses,
			WalkRefs:        rep.WalkRefs,
			GuestPageFaults: rep.GuestPageFaults,
			WriteProtFaults: rep.WriteProtFaults,
			CtxSwitches:     rep.CtxSwitches,
			IdealCycles:     rep.IdealCycles,
			WalkCycles:      rep.WalkCycles,
			VMMCycles:       rep.TrapCycles,
			TLBLookups:      rep.TLBLookups,
			TLBL1Hits:       rep.TLBL1Hits,
			TLBL2Hits:       rep.TLBL2Hits,
			WalkerWalks:     rep.Walks,
			WalkerRefs:      rep.WalkerRefs,
			ByNestedLevels:  rep.WalksByNestedLevels,
			FullNested:      rep.FullNestedWalks,
			RefsP50:         rep.RefsP50,
			RefsP95:         rep.RefsP95,
			RefsMax:         rep.RefsMax,
		})
	}
	h := Headline(f5)
	g.Headline = [4]uint64{
		math.Float64bits(h.GeoAgileVsBest4K),
		math.Float64bits(h.GeoAgileVsNative4K),
		math.Float64bits(h.GeoAgileVsBest2M),
		math.Float64bits(h.GeoAgileVsNative2M),
	}

	t2, err := TableIISweep(context.Background(), sweep.Config{})
	if err != nil {
		t.Fatalf("TableII: %v", err)
	}
	for _, r := range t2 {
		g.TableII = append(g.TableII, goldenTableIIRow{
			Degree:       r.Degree,
			NestedLevels: r.NestedLevels,
			Refs:         r.Refs,
			Accesses:     r.Accesses,
		})
	}

	t6, err := TableVISweep(context.Background(), sweep.Config{}, nil, goldenAccesses, goldenSeed)
	if err != nil {
		t.Fatalf("TableVI: %v", err)
	}
	for _, r := range t6 {
		row := goldenTableVIRow{Workload: r.Workload, AvgRefsBits: math.Float64bits(r.AvgRefs)}
		for i, f := range r.Fractions {
			row.FractionsBits[i] = math.Float64bits(f)
		}
		g.TableVI = append(g.TableVI, row)
	}
	return g
}

// TestGoldenEquivalence verifies that Figure 5, Table II, and Table VI are
// bit-identical to the pre-optimization implementation: same seeds, same
// counters, same floating-point overheads to the last bit.
func TestGoldenEquivalence(t *testing.T) {
	got := captureGolden(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d figure5 rows)", goldenFile, len(got.Figure5))
		return
	}

	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	var want goldenData
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenFile, err)
	}

	if got.Accesses != want.Accesses || got.Seed != want.Seed {
		t.Fatalf("golden parameters changed: got %d/%d, want %d/%d",
			got.Accesses, got.Seed, want.Accesses, want.Seed)
	}
	if len(got.Figure5) != len(want.Figure5) {
		t.Fatalf("Figure5 rows = %d, want %d", len(got.Figure5), len(want.Figure5))
	}
	for i := range want.Figure5 {
		if !reflect.DeepEqual(got.Figure5[i], want.Figure5[i]) {
			t.Errorf("Figure5 row %s/%s/%s diverged:\n got  %+v\n want %+v",
				want.Figure5[i].Workload, want.Figure5[i].PageSize, want.Figure5[i].Technique,
				got.Figure5[i], want.Figure5[i])
		}
	}
	if got.Headline != want.Headline {
		t.Errorf("Headline geomeans diverged: got %v, want %v", got.Headline, want.Headline)
	}
	if !reflect.DeepEqual(got.TableII, want.TableII) {
		t.Errorf("TableII diverged:\n got  %+v\n want %+v", got.TableII, want.TableII)
	}
	if !reflect.DeepEqual(got.TableVI, want.TableVI) {
		t.Errorf("TableVI diverged:\n got  %+v\n want %+v", got.TableVI, want.TableVI)
	}
}

// goldenInstrumentedFile pins Table I and the Table IV model validation,
// which the Figure 5 / Table II / Table VI golden above does not cover.
const goldenInstrumentedFile = "testdata/golden_tablei_validate.json"

// goldenTableIRow records one Table I column, floats as Float64bits.
type goldenTableIRow struct {
	Technique        string
	TLBHit           string
	MaxRefs          int
	AvgRefsBits      uint64
	UpdateCyclesBits uint64
	UpdateMode       string
	Hardware         string
}

// goldenValidationRow records one workload's model validation as
// Float64bits.
type goldenValidationRow struct {
	Workload            string
	DirectWalkOvBits    uint64
	DirectVMMOvBits     uint64
	ProjectedWalkOvBits uint64
	ProjectedVMMOvBits  uint64
}

type goldenInstrumentedData struct {
	Accesses   int
	Seed       int64
	TableI     []goldenTableIRow
	Validation []goldenValidationRow
}

// TestGoldenTableIAndValidation pins Table I and ValidateModelSweep for
// every workload bit for bit. Run with -update only when a change
// intentionally moves simulated behaviour.
func TestGoldenTableIAndValidation(t *testing.T) {
	got := goldenInstrumentedData{Accesses: goldenAccesses, Seed: goldenSeed}
	t1, err := TableISweep(context.Background(), sweep.Config{})
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	for _, r := range t1 {
		got.TableI = append(got.TableI, goldenTableIRow{
			Technique:        r.Technique.String(),
			TLBHit:           r.TLBHit,
			MaxRefs:          r.MaxRefs,
			AvgRefsBits:      math.Float64bits(r.AvgRefs),
			UpdateCyclesBits: math.Float64bits(r.UpdateCycles),
			UpdateMode:       r.UpdateMode,
			Hardware:         r.Hardware,
		})
	}
	for _, name := range workload.Names() {
		v, err := ValidateModelSweep(context.Background(), sweep.Config{}, name, goldenAccesses, goldenSeed)
		if err != nil {
			t.Fatalf("ValidateModel %s: %v", name, err)
		}
		got.Validation = append(got.Validation, goldenValidationRow{
			Workload:            v.Workload,
			DirectWalkOvBits:    math.Float64bits(v.DirectWalkOv),
			DirectVMMOvBits:     math.Float64bits(v.DirectVMMOv),
			ProjectedWalkOvBits: math.Float64bits(v.ProjectedWalkOv),
			ProjectedVMMOvBits:  math.Float64bits(v.ProjectedVMMOv),
		})
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenInstrumentedFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenInstrumentedFile)
		return
	}
	buf, err := os.ReadFile(goldenInstrumentedFile)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	var want goldenInstrumentedData
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenInstrumentedFile, err)
	}
	if !reflect.DeepEqual(got.TableI, want.TableI) {
		t.Errorf("TableI diverged:\n got  %+v\n want %+v", got.TableI, want.TableI)
	}
	if !reflect.DeepEqual(got.Validation, want.Validation) {
		t.Errorf("Validation diverged:\n got  %+v\n want %+v", got.Validation, want.Validation)
	}
	if got.Accesses != want.Accesses || got.Seed != want.Seed {
		t.Errorf("golden parameters changed: got %d/%d, want %d/%d",
			got.Accesses, got.Seed, want.Accesses, want.Seed)
	}
}
