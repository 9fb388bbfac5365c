package trace

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/vmm"
	"agilepaging/internal/workload"
)

func TestOpsRoundTrip(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	ops := workload.Collect(workload.New(prof, pagetable.Size2M, 500, 3), 0)
	var buf bytes.Buffer
	if err := WriteOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("len %d != %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
}

func TestOpsBadMagic(t *testing.T) {
	if _, err := ReadOps(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v", err)
	}
	if _, err := ReadOps(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMissLogObserverAndSummary(t *testing.T) {
	var l MissLog
	l.Record(telemetry.WalkEvent{VA: 0x1000, Refs: 4, NestedLevels: 0})
	l.Record(telemetry.WalkEvent{VA: 0x2000, Refs: 8, NestedLevels: 1, Write: true})
	l.Record(telemetry.WalkEvent{VA: 0x3000, Refs: 20, NestedLevels: 4})
	l.Record(telemetry.WalkEvent{VA: 0x4000, Refs: 24, NestedLevels: 4, FullNested: true, Write: true, Retry: true})
	s := l.Summary()
	if s.Total != 4 {
		t.Fatalf("total = %d", s.Total)
	}
	// Record must carry the access's write bit into the records and the
	// retry marker alongside it.
	if s.Writes != 2 || s.Retries != 1 {
		t.Errorf("writes/retries = %d/%d, want 2/1", s.Writes, s.Retries)
	}
	if s.WriteFraction() != 0.5 || s.RetryFraction() != 0.25 {
		t.Errorf("write/retry fractions = %v/%v", s.WriteFraction(), s.RetryFraction())
	}
	if !l.Records[1].Write || l.Records[1].Retry {
		t.Errorf("record 1 = %+v, want write-only", l.Records[1])
	}
	if !l.Records[3].Write || !l.Records[3].Retry {
		t.Errorf("record 3 = %+v, want write+retry", l.Records[3])
	}
	if s.ByClass[0] != 1 || s.ByClass[1] != 1 || s.ByClass[4] != 1 || s.ByClass[5] != 1 {
		t.Errorf("classes = %v", s.ByClass)
	}
	if s.AvgRefs() != 14 {
		t.Errorf("AvgRefs = %v", s.AvgRefs())
	}
	f := s.NestedFractions()
	if math.Abs(f[1]-0.5) > 1e-9 { // top-level switch + full nested
		t.Errorf("F_N1 = %v", f[1])
	}
	if math.Abs(f[4]-0.25) > 1e-9 { // leaf switch
		t.Errorf("F_N4 = %v", f[4])
	}
	if math.Abs(s.Fraction(0)-0.25) > 1e-9 {
		t.Errorf("shadow fraction = %v", s.Fraction(0))
	}
}

func TestMissLogRoundTrip(t *testing.T) {
	l := &MissLog{Records: []MissRecord{
		{VA: 0x7f0000001000, Refs: 4},
		{VA: 0x2000, Refs: 8, NestedLevels: 1, Write: true},
		{VA: 0x3000, Refs: 24, NestedLevels: 4, GptrTranslated: true},
		{VA: 0x4000, Refs: 9, NestedLevels: 2, Write: true, Retry: true},
	}}
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMissLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 4 {
		t.Fatalf("records = %d", len(got.Records))
	}
	for i := range l.Records {
		if got.Records[i] != l.Records[i] {
			t.Errorf("record %d: %+v != %+v", i, got.Records[i], l.Records[i])
		}
	}
	if _, err := LoadMissLog(bytes.NewReader([]byte{9, 9, 9, 9})); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic err = %v", err)
	}
}

func TestEmptySummaries(t *testing.T) {
	var l MissLog
	s := l.Summary()
	if s.AvgRefs() != 0 || s.Fraction(0) != 0 {
		t.Error("empty summary should be zero")
	}
	if s.NestedFractions().Sum() != 0 {
		t.Error("empty fractions")
	}
}

func TestAvoidedCycles(t *testing.T) {
	var shadow, agile [vmm.NumTrapKinds]uint64
	shadow[vmm.TrapPTWrite] = 10
	shadow[vmm.TrapTLBFlush] = 1
	agile[vmm.TrapPTWrite] = 2
	agile[vmm.TrapShadowFill] = 5 // agile can have *more* of a kind
	costs := vmm.DefaultCostModel()
	want := 8*costs.Cycles[vmm.TrapPTWrite] + 1*costs.Cycles[vmm.TrapTLBFlush]
	if got := AvoidedCycles(shadow, agile, costs); got != want {
		t.Errorf("AvoidedCycles = %d, want %d", got, want)
	}
	if got := AvoidedCycles(agile, agile, costs); got != 0 {
		t.Errorf("AvoidedCycles(same, same) = %d, want 0", got)
	}
}
