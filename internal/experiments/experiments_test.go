package experiments

import (
	"context"
	"strings"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
)

func TestTableIIExactRefCounts(t *testing.T) {
	rows, err := TableIISweep(context.Background(), sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 8, 12, 16, 20, 24} // paper Table II / Table VI header
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Refs != want[i] {
			t.Errorf("%s: refs = %d, want %d", r.Degree, r.Refs, want[i])
		}
		if len(r.Accesses) != r.Refs {
			t.Errorf("%s: trace has %d accesses for %d refs", r.Degree, len(r.Accesses), r.Refs)
		}
	}
	out := FormatTableII(rows)
	if !strings.Contains(out, "nested only") || !strings.Contains(out, "24") {
		t.Errorf("FormatTableII output incomplete:\n%s", out)
	}
}

func TestWalkTracesMatchFigure1(t *testing.T) {
	traces, err := WalkTraces()
	if err != nil {
		t.Fatal(err)
	}
	wantLens := map[string]int{"native": 4, "shadow": 4, "nested": 24, "agile": 8}
	for name, n := range wantLens {
		if got := len(traces[name]); got != n {
			t.Errorf("%s trace has %d accesses, want %d", name, got, n)
		}
	}
	// The nested trace starts with 4 host references (gptr translation).
	for i := 0; i < 4; i++ {
		if traces["nested"][i].Table != walker.TableHost {
			t.Errorf("nested access %d in %v, want hPT", i, traces["nested"][i].Table)
		}
	}
	// The agile trace is 3 sPT refs, then gPT, then 4 hPT refs (Fig 3b).
	agile := traces["agile"]
	for i := 0; i < 3; i++ {
		if agile[i].Table != walker.TableShadow {
			t.Errorf("agile access %d in %v, want sPT", i, agile[i].Table)
		}
	}
	if agile[3].Table != walker.TableGuest {
		t.Errorf("agile access 3 in %v, want gPT", agile[3].Table)
	}
	if out := FormatWalkTraces(traces); !strings.Contains(out, "sPT") {
		t.Error("FormatWalkTraces output incomplete")
	}
}

func TestTableIShape(t *testing.T) {
	rows, err := TableISweep(context.Background(), sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byTech := map[walker.Mode]TableIRow{}
	for _, r := range rows {
		byTech[r.Technique] = r
	}
	// Max refs per miss: native 4, nested 24, shadow 4, agile in [4, 24].
	if byTech[walker.ModeNative].MaxRefs != 4 {
		t.Errorf("native max refs = %d", byTech[walker.ModeNative].MaxRefs)
	}
	if byTech[walker.ModeNested].MaxRefs != 24 {
		t.Errorf("nested max refs = %d", byTech[walker.ModeNested].MaxRefs)
	}
	if byTech[walker.ModeShadow].MaxRefs != 4 {
		t.Errorf("shadow max refs = %d", byTech[walker.ModeShadow].MaxRefs)
	}
	agile := byTech[walker.ModeAgile]
	if agile.MaxRefs < 8 || agile.MaxRefs > 24 {
		t.Errorf("agile max refs = %d, want in [8,24]", agile.MaxRefs)
	}
	if agile.AvgRefs < 4 || agile.AvgRefs > 6 {
		t.Errorf("agile avg refs = %.2f, want ~4-5 (paper Table I)", agile.AvgRefs)
	}
	// Update costs: shadow mediated, others fast.
	if byTech[walker.ModeShadow].UpdateCycles <= byTech[walker.ModeNested].UpdateCycles {
		t.Errorf("shadow update cost %.0f not above nested %.0f",
			byTech[walker.ModeShadow].UpdateCycles, byTech[walker.ModeNested].UpdateCycles)
	}
	if byTech[walker.ModeNative].UpdateCycles != 0 || byTech[walker.ModeNested].UpdateCycles != 0 {
		t.Error("native/nested updates should be free of VMM cycles")
	}
	if agile.UpdateCycles >= byTech[walker.ModeShadow].UpdateCycles {
		t.Errorf("agile update cost %.0f not below shadow %.0f", agile.UpdateCycles, byTech[walker.ModeShadow].UpdateCycles)
	}
	if out := FormatTableI(rows); !strings.Contains(out, "Agile") {
		t.Error("FormatTableI output incomplete")
	}
}

const testAccesses = 60_000

func TestFigure5ShapeSingleWorkload(t *testing.T) {
	res, err := Figure5Sweep(context.Background(), sweep.Config{}, []string{"dedup"}, testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 sizes x 4 techniques)", len(res.Rows))
	}
	sh4, _ := res.Get("dedup", pagetable.Size4K, walker.ModeShadow)
	ne4, _ := res.Get("dedup", pagetable.Size4K, walker.ModeNested)
	ag4, _ := res.Get("dedup", pagetable.Size4K, walker.ModeAgile)
	ba4, _ := res.Get("dedup", pagetable.Size4K, walker.ModeNative)
	// dedup: allocation-heavy => shadow has a large VMM component; nested
	// has none; agile's is far below shadow's (paper Fig. 5).
	if sh4.VMMOv < 0.05 {
		t.Errorf("dedup shadow VMM overhead = %.3f, expected substantial", sh4.VMMOv)
	}
	if ne4.VMMOv != 0 {
		t.Errorf("nested VMM overhead = %.3f, want 0", ne4.VMMOv)
	}
	if ag4.VMMOv > sh4.VMMOv/2 {
		t.Errorf("agile VMM overhead %.3f not well below shadow %.3f", ag4.VMMOv, sh4.VMMOv)
	}
	// Nested pays more walk overhead than native.
	if ne4.WalkOv <= ba4.WalkOv {
		t.Errorf("nested walk %.3f not above native %.3f", ne4.WalkOv, ba4.WalkOv)
	}
	// Agile beats the best of the two constituents.
	best := sh4.TotalOv()
	if ne4.TotalOv() < best {
		best = ne4.TotalOv()
	}
	if ag4.TotalOv() >= best {
		t.Errorf("agile total %.3f does not beat best constituent %.3f", ag4.TotalOv(), best)
	}
	if out := FormatFigure5(res); !strings.Contains(out, "dedup") {
		t.Error("FormatFigure5 output incomplete")
	}
	h := Headline(res)
	if len(h.Rows) != 2 {
		t.Fatalf("headline rows = %d", len(h.Rows))
	}
	if out := FormatHeadline(h); !strings.Contains(out, "geomean") {
		t.Error("FormatHeadline output incomplete")
	}
}

func TestFigure5StaticWorkloadShape(t *testing.T) {
	res, err := Figure5Sweep(context.Background(), sweep.Config{}, []string{"mcf"}, testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh4, _ := res.Get("mcf", pagetable.Size4K, walker.ModeShadow)
	ne4, _ := res.Get("mcf", pagetable.Size4K, walker.ModeNative)
	ag4, _ := res.Get("mcf", pagetable.Size4K, walker.ModeAgile)
	// Static workload: shadow ≈ native walk cost, tiny VMM component after
	// warmup; agile ≈ shadow.
	if sh4.VMMOv > 0.10 {
		t.Errorf("mcf shadow VMM overhead = %.3f, expected small", sh4.VMMOv)
	}
	if ag4.TotalOv() > sh4.TotalOv()+0.05 {
		t.Errorf("agile %.3f much worse than shadow %.3f on static workload", ag4.TotalOv(), sh4.TotalOv())
	}
	_ = ne4
	// 2M pages reduce native walk overhead.
	ba2, _ := res.Get("mcf", pagetable.Size2M, walker.ModeNative)
	ba4, _ := res.Get("mcf", pagetable.Size4K, walker.ModeNative)
	if ba2.WalkOv >= ba4.WalkOv {
		t.Errorf("2M native walk %.3f not below 4K %.3f", ba2.WalkOv, ba4.WalkOv)
	}
}

func TestTableVIShape(t *testing.T) {
	rows, err := TableVISweep(context.Background(), sweep.Config{}, []string{"mcf", "dedup"}, testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := 0.0
		for _, f := range r.Fractions {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %.4f", r.Workload, sum)
		}
		if r.AvgRefs < 4 || r.AvgRefs > 24 {
			t.Errorf("%s: avg refs = %.2f", r.Workload, r.AvgRefs)
		}
		// Most misses are served in shadow mode (paper: >80%).
		if r.Fractions[0] < 0.5 {
			t.Errorf("%s: shadow fraction = %.2f, expected dominant", r.Workload, r.Fractions[0])
		}
	}
	// mcf is static: nearly all shadow, avg refs near 4 (paper: 99.1%, 4.04).
	if rows[0].Fractions[0] < 0.95 {
		t.Errorf("mcf shadow fraction = %.3f, want > 0.95", rows[0].Fractions[0])
	}
	if rows[0].AvgRefs > 5.0 {
		t.Errorf("mcf avg refs = %.2f, want near 4", rows[0].AvgRefs)
	}
	if out := FormatTableVI(rows); !strings.Contains(out, "avg refs") {
		t.Error("FormatTableVI output incomplete")
	}
}

func TestAblationsShape(t *testing.T) {
	rows, err := AblationsSweep(context.Background(), sweep.Config{}, testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name+"/"+r.Workload] = r
	}
	// Hardware A/D reduces VMM overhead on dedup (agile and shadow).
	// Hardware A/D must never hurt agile (agile's write-threshold policy
	// already converts A/D-churning tables to nested mode, so the two can
	// tie) and must strictly help pure shadow.
	if byName["agile + hw A/D/read-then-write µbench"].VMMOv > byName["agile baseline/read-then-write µbench"].VMMOv {
		t.Error("hw A/D increased agile VMM overhead")
	}
	if byName["shadow + hw A/D/read-then-write µbench"].VMMOv >= byName["shadow baseline/read-then-write µbench"].VMMOv {
		t.Error("hw A/D did not reduce shadow VMM overhead")
	}
	// Context-switch cache reduces traps on gcc.
	if byName["agile + ctx cache(8)/ctx-switch µbench"].Traps >= byName["agile, no ctx cache/ctx-switch µbench"].Traps {
		t.Error("ctx cache did not reduce traps")
	}
	// PWC/NTLB reduce walk overhead on graph500.
	if byName["agile, PWC+NTLB/graph500"].WalkOv >= byName["agile, no PWC/NTLB/graph500"].WalkOv {
		t.Error("MMU caches did not reduce walk overhead")
	}
	if out := FormatAblations(rows); !strings.Contains(out, "ctx cache") {
		t.Error("FormatAblations output incomplete")
	}
	if out := FormatTrapCosts(); !strings.Contains(out, "pt-write") {
		t.Error("FormatTrapCosts output incomplete")
	}
}

func TestValidateModelAgreement(t *testing.T) {
	v, err := ValidateModelSweep(context.Background(), sweep.Config{}, "canneal", testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The Table-IV projection is conservative (paper: "leads to higher
	// overheads for agile paging than with real hardware"), so it should
	// bound the direct measurement from above-or-near on the walk side.
	if v.ProjectedWalkOv < 0.8*v.DirectWalkOv-0.02 {
		t.Errorf("projection %.3f far below direct %.3f", v.ProjectedWalkOv, v.DirectWalkOv)
	}
	if v.ProjectedWalkOv > 3*v.DirectWalkOv+0.05 {
		t.Errorf("projection %.3f far above direct %.3f", v.ProjectedWalkOv, v.DirectWalkOv)
	}
	if out := FormatModelValidation(v); !strings.Contains(out, "canneal") {
		t.Error("FormatModelValidation output incomplete")
	}
}

func TestRunProfileUnknownWorkload(t *testing.T) {
	if _, err := RunProfile("nope", DefaultOptions(walker.ModeNative, pagetable.Size4K)); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSHSPApproximatesBestAgileExceeds(t *testing.T) {
	rows, err := SHSPComparisonSweep(context.Background(), sweep.Config{}, []string{"mcf", "dedup"}, 120_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// SHSP lands near the best constituent (within 25% relative —
		// paper §VII.C: "SHSP can achieve approximately the best of the
		// two techniques").
		if r.SHSP > r.Best()*1.25+0.05 {
			t.Errorf("%s: SHSP %.3f far above best constituent %.3f", r.Workload, r.SHSP, r.Best())
		}
		// Agile paging exceeds SHSP (the paper's central §VII.C claim).
		if r.Agile > r.SHSP+0.01 {
			t.Errorf("%s: agile %.3f does not exceed SHSP %.3f", r.Workload, r.Agile, r.SHSP)
		}
	}
	if out := FormatSHSP(rows); !strings.Contains(out, "SHSP") {
		t.Error("FormatSHSP output incomplete")
	}
}

func TestFormatFigure5Chart(t *testing.T) {
	res := &Figure5Result{Rows: []Figure5Row{
		{Workload: "dedup", PageSize: pagetable.Size4K, Technique: walker.ModeShadow, WalkOv: 0.4, VMMOv: 7.0},
		{Workload: "dedup", PageSize: pagetable.Size4K, Technique: walker.ModeAgile, WalkOv: 0.4, VMMOv: 0.01},
	}}
	out := FormatFigure5Chart(res)
	if !strings.Contains(out, "dedup") || !strings.Contains(out, "#") || !strings.Contains(out, "=") {
		t.Errorf("chart output incomplete:\n%s", out)
	}
	// Empty sweep must not divide by zero.
	if out := FormatFigure5Chart(&Figure5Result{}); out == "" {
		t.Error("empty chart")
	}
}

func TestTableVWorkloadsQualify(t *testing.T) {
	rows, err := TableVSweep(context.Background(), sweep.Config{}, testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper selects workloads above 5 MPKI.
		if r.MPKI < 5 {
			t.Errorf("%s: MPKI = %.1f, below the paper's selection bar", r.Workload, r.MPKI)
		}
		if r.FootprintBytes == 0 || r.Pattern == "" {
			t.Errorf("%s: incomplete row %+v", r.Workload, r)
		}
	}
	if out := FormatTableV(rows); !strings.Contains(out, "MPKI") {
		t.Error("FormatTableV output incomplete")
	}
}

func TestCSVExports(t *testing.T) {
	res := &Figure5Result{Rows: []Figure5Row{{
		Workload: "mcf", PageSize: pagetable.Size4K, Technique: walker.ModeAgile,
		WalkOv: 0.8, VMMOv: 0.01,
	}}}
	var buf strings.Builder
	if err := WriteFigure5CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "workload,page_size") || !strings.Contains(out, "mcf,4K,agile") {
		t.Errorf("figure5 csv:\n%s", out)
	}
	var buf2 strings.Builder
	rows := []TableVIRow{{Workload: "mcf", Fractions: [6]float64{1, 0, 0, 0, 0, 0}, AvgRefs: 4}}
	if err := WriteTableVICSV(&buf2, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "mcf,1.000000") {
		t.Errorf("table6 csv:\n%s", buf2.String())
	}
}

func TestTableIIIDescribesMachine(t *testing.T) {
	out := TableIII()
	for _, want := range []string{"L1 DTLB", "L2 TLB", "Nested TLB", "VM-exit costs", "Cycle model"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
}

// TestNestedToNativeRatioBand is the calibration regression net: the paper
// reports nested paging's translation overheads at roughly 2.5x native
// (geometric mean, 4K). The simulator must stay in a 1.5x-3.5x band.
func TestNestedToNativeRatioBand(t *testing.T) {
	for _, name := range []string{"mcf", "dedup", "canneal"} {
		oN := DefaultOptions(walker.ModeNested, pagetable.Size4K)
		oN.Accesses = testAccesses
		oB := DefaultOptions(walker.ModeNative, pagetable.Size4K)
		oB.Accesses = testAccesses
		repN, err := RunProfile(name, oN)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := RunProfile(name, oB)
		if err != nil {
			t.Fatal(err)
		}
		if repB.WalkOverhead() == 0 {
			t.Fatalf("%s: no native walk overhead", name)
		}
		ratio := repN.WalkOverhead() / repB.WalkOverhead()
		if ratio < 1.5 || ratio > 3.5 {
			t.Errorf("%s: nested/native walk ratio = %.2f, outside the published band", name, ratio)
		}
	}
}

func TestSensitivityAgileRobust(t *testing.T) {
	rows, err := SensitivitySweep(context.Background(), sweep.Config{}, 60_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.AgileWins {
			t.Errorf("agile loses at trap x%.1f / ref x%.1f: N=%.2f S=%.2f A=%.2f",
				r.TrapScale, r.RefScale, r.Nested, r.Shadow, r.Agile)
		}
	}
	if out := FormatSensitivity(rows); !strings.Contains(out, "agile wins") {
		t.Error("FormatSensitivity output incomplete")
	}
}
