package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"agilepaging/internal/vmm"
)

func TestCountersDiff(t *testing.T) {
	prev := Counters{
		Clock: 1000, Accesses: 100, Writes: 10,
		TLBMisses: 5, Walks: 5, WalkRefs: 40,
		TrapCycles: 7000, MapsInstalled: 3,
		NestedNodes: 2, ProtectedPages: 8,
	}
	prev.WalksByNestedLevels[1] = 2
	prev.RefsByNestedLevels[1] = 16
	prev.VMExits[vmm.TrapPTWrite] = 4

	cur := Counters{
		Clock: 5000, Accesses: 300, Writes: 50,
		TLBMisses: 9, Walks: 9, WalkRefs: 70,
		TrapCycles: 9000, MapsInstalled: 5,
		NestedNodes: 6, ProtectedPages: 3,
	}
	cur.WalksByNestedLevels[1] = 7
	cur.RefsByNestedLevels[1] = 51
	cur.VMExits[vmm.TrapPTWrite] = 11

	d := cur.Diff(prev)
	if d.Clock != 4000 || d.Accesses != 200 || d.Writes != 40 {
		t.Errorf("clock/accesses/writes = %d/%d/%d", d.Clock, d.Accesses, d.Writes)
	}
	if d.TLBMisses != 4 || d.WalkRefs != 30 {
		t.Errorf("misses/refs = %d/%d", d.TLBMisses, d.WalkRefs)
	}
	if d.WalksByNestedLevels[1] != 5 || d.RefsByNestedLevels[1] != 35 {
		t.Errorf("by-level deltas = %d/%d", d.WalksByNestedLevels[1], d.RefsByNestedLevels[1])
	}
	if d.VMExits[vmm.TrapPTWrite] != 7 || d.VMExitTotal() != 7 {
		t.Errorf("vm exits = %v", d.VMExits)
	}
	// Gauges keep the end-of-interval value, not a (meaningless) difference.
	if d.NestedNodes != 6 || d.ProtectedPages != 3 {
		t.Errorf("gauges = %d/%d, want end values 6/3", d.NestedNodes, d.ProtectedPages)
	}

	// Diff is written out by hand; this pass fills every field by
	// reflection so a counter added to the struct but not to Diff fails
	// here: every uint64 (scalar or array element) must subtract, every
	// int gauge must keep its end value.
	var before, after Counters
	names, bs := fieldLeaves(reflect.ValueOf(&before).Elem())
	_, as := fieldLeaves(reflect.ValueOf(&after).Elem())
	for i := range bs {
		switch bs[i].Kind() {
		case reflect.Uint64:
			bs[i].SetUint(uint64(i + 1))
			as[i].SetUint(uint64(3*i + 10))
		case reflect.Int:
			bs[i].SetInt(int64(i + 1))
			as[i].SetInt(int64(5*i + 5))
		default:
			t.Fatalf("Counters.%s is a %s; teach Diff and this test about it", names[i], bs[i].Kind())
		}
	}
	diff := after.Diff(before)
	_, ds := fieldLeaves(reflect.ValueOf(&diff).Elem())
	for i, d := range ds {
		switch d.Kind() {
		case reflect.Uint64:
			if want := as[i].Uint() - bs[i].Uint(); d.Uint() != want {
				t.Errorf("Diff %s = %d, want %d", names[i], d.Uint(), want)
			}
		case reflect.Int:
			if d.Int() != as[i].Int() {
				t.Errorf("Diff gauge %s = %d, want end value %d", names[i], d.Int(), as[i].Int())
			}
		}
	}
}

// fieldLeaves lists a struct's scalar fields, array elements one by one.
func fieldLeaves(v reflect.Value) (names []string, leaves []reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if f.Kind() != reflect.Array {
			names, leaves = append(names, name), append(leaves, f)
			continue
		}
		for j := 0; j < f.Len(); j++ {
			names, leaves = append(names, fmt.Sprintf("%s[%d]", name, j)), append(leaves, f.Index(j))
		}
	}
	return names, leaves
}

func TestEpochDerivedRates(t *testing.T) {
	e := Epoch{Delta: Counters{
		Accesses: 1000, TLBMisses: 50, WalkRefs: 600,
		MapsInstalled: 4, Unmapped: 1, PTUpdateTrapCycles: 17_250,
	}}
	d := e.Delta
	if d.MissRate() != 0.05 {
		t.Errorf("MissRate = %v", d.MissRate())
	}
	if d.RefsPerMiss() != 12 {
		t.Errorf("RefsPerMiss = %v", d.RefsPerMiss())
	}
	if d.PTUpdates() != 5 {
		t.Errorf("PTUpdates = %d", d.PTUpdates())
	}
	if e.UpdateCost() != 3450 {
		t.Errorf("UpdateCost = %v", e.UpdateCost())
	}
	var empty Epoch
	if empty.Delta.MissRate() != 0 || empty.Delta.RefsPerMiss() != 0 || empty.UpdateCost() != 0 {
		t.Error("empty epoch rates must be zero")
	}
}

func TestRecorderEpochBoundaries(t *testing.T) {
	r := NewRecorder(3)
	if r.EpochLen() != 3 {
		t.Fatalf("EpochLen = %d", r.EpochLen())
	}
	r.Rebase(Counters{Clock: 100, Accesses: 10})
	for i := 0; i < 2; i++ {
		if r.OnAccess() {
			t.Fatalf("boundary reported after %d accesses", i+1)
		}
	}
	if !r.OnAccess() {
		t.Fatal("no boundary after epochLen accesses")
	}
	r.Sample(Counters{Clock: 400, Accesses: 13})
	s := r.Series()
	if len(s.Epochs) != 1 {
		t.Fatalf("epochs = %d", len(s.Epochs))
	}
	e := s.Epochs[0]
	if e.Index != 0 || e.StartAccesses != 10 || e.EndAccesses != 13 {
		t.Errorf("epoch bounds = %+v", e)
	}
	if e.StartClock != 100 || e.EndClock != 400 || e.Delta.Clock != 300 {
		t.Errorf("epoch clocks = %+v", e)
	}

	// Flush with no accesses since the boundary is a no-op...
	r.Flush(Counters{Clock: 500, Accesses: 13})
	if len(r.Series().Epochs) != 1 {
		t.Error("Flush appended an empty epoch")
	}
	// ...but a partial epoch is flushed.
	r.OnAccess()
	r.Flush(Counters{Clock: 600, Accesses: 14})
	if len(r.Series().Epochs) != 2 {
		t.Fatal("partial epoch not flushed")
	}
	if got := r.Series().Epochs[1]; got.Delta.Accesses != 1 || got.Index != 1 {
		t.Errorf("flushed epoch = %+v", got)
	}

	// Rebase discards in-progress progress and resets the baseline.
	r.OnAccess()
	r.OnAccess()
	r.Rebase(Counters{Clock: 1000, Accesses: 20})
	r.Flush(Counters{Clock: 1100, Accesses: 21})
	if len(r.Series().Epochs) != 2 {
		t.Error("Rebase did not discard the partial epoch")
	}
}

func TestNewRecorderDefault(t *testing.T) {
	if got := NewRecorder(0).EpochLen(); got != 10_000 {
		t.Errorf("default epoch len = %d", got)
	}
}

func TestSeriesExports(t *testing.T) {
	r := NewRecorder(2)
	r.Rebase(Counters{})
	r.OnAccess()
	r.OnAccess()
	c := Counters{Clock: 900, Accesses: 2, TLBMisses: 1, WalkRefs: 24, MapsInstalled: 2, PTUpdateTrapCycles: 6900}
	c.VMExits[vmm.TrapPTWrite] = 2
	r.Sample(c)
	s := r.Series()

	var jsonBuf bytes.Buffer
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded Series
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if decoded.EpochLen != 2 || len(decoded.Epochs) != 1 {
		t.Errorf("decoded = %+v", decoded)
	}
	if len(decoded.TrapKinds) != int(vmm.NumTrapKinds) || decoded.TrapKinds[vmm.TrapPTWrite] != vmm.TrapPTWrite.String() {
		t.Errorf("TrapKinds = %v", decoded.TrapKinds)
	}
	if decoded.Epochs[0].Delta.VMExits[vmm.TrapPTWrite] != 2 {
		t.Errorf("decoded epoch = %+v", decoded.Epochs[0])
	}

	var csvBuf bytes.Buffer
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Errorf("csv header = %q", lines[0])
	}
	fields := strings.Split(lines[1], ",")
	if len(fields) != len(csvHeader) {
		t.Fatalf("csv row has %d fields, header %d", len(fields), len(csvHeader))
	}
	// update_cost column: 6900 cycles / 2 updates.
	if fields[13] != "3450.0" {
		t.Errorf("update_cost cell = %q", fields[13])
	}

	// WriteFile picks the format by extension: .csv is CSV, anything else JSON.
	dir := t.TempDir()
	for name, want := range map[string][]byte{"s.csv": csvBuf.Bytes(), "s.json": jsonBuf.Bytes()} {
		path := filepath.Join(dir, name)
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("WriteFile(%s) = %q, %v; want %q", name, got, err, want)
		}
	}

	table := s.Table()
	if !strings.Contains(table, "upd-cost") || !strings.Contains(table, "3450") {
		t.Errorf("table output missing expected cells:\n%s", table)
	}
}

func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 0; i < 6; i++ {
		r.Record(WalkEvent{VA: uint64(0x1000 * (i + 1)), Clock: uint64(100 * (i + 1)), Cycles: 10})
	}
	if r.Total() != 6 {
		t.Errorf("total = %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	// Oldest-first: events 2..5 survive, with ring-assigned Seq.
	for i, ev := range evs {
		want := uint64(i + 2)
		if ev.Seq != want || ev.VA != 0x1000*(want+1) {
			t.Errorf("event %d = %+v, want seq %d", i, ev, want)
		}
	}
}

func TestEventRingDefaultCap(t *testing.T) {
	if got := NewEventRing(0).Cap(); got != 4096 {
		t.Errorf("default cap = %d", got)
	}
}

func TestWalkEventClass(t *testing.T) {
	cases := []struct {
		ev        WalkEvent
		wantClass int
		want      string
	}{
		{WalkEvent{FullNested: true, NestedLevels: 4}, 5, "full-nested"},
		{WalkEvent{FullNested: true, NestedLevels: 3}, 5, "full-nested"},
		{WalkEvent{NestedLevels: 0}, 0, "full-shadow"},
		{WalkEvent{NestedLevels: 4}, 4, "switch-L1"},
		{WalkEvent{NestedLevels: 3}, 3, "switch-L2"},
		{WalkEvent{NestedLevels: 2}, 2, "switch-L3"},
		{WalkEvent{NestedLevels: 1}, 1, "switch-L4"},
	}
	for _, c := range cases {
		class := WalkClass(c.ev.NestedLevels, c.ev.FullNested)
		if class != c.wantClass || walkClassNames[class] != c.want {
			t.Errorf("WalkClass(%+v) = %d (%q), want %d (%q)",
				c.ev, class, walkClassNames[class], c.wantClass, c.want)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewEventRing(8)
	r.Record(WalkEvent{Clock: 500, Core: 0, VA: 0x1000, Refs: 4, Cycles: 160})
	r.Record(WalkEvent{Clock: 900, Core: 1, VA: 0x2000, Refs: 24, NestedLevels: 4, FullNested: true, Write: true, Cycles: 960})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	first := events[0]
	if first["ph"] != "X" || first["cat"] != "full-shadow" {
		t.Errorf("first event = %v", first)
	}
	// ts = completion clock − charged cycles, dur = cycles.
	if first["ts"].(float64) != 340 || first["dur"].(float64) != 160 {
		t.Errorf("first timing = ts %v dur %v", first["ts"], first["dur"])
	}
	second := events[1]
	if second["cat"] != "full-nested" || second["tid"].(float64) != 2 {
		t.Errorf("second event = %v", second)
	}
	if second["args"].(map[string]any)["write"].(float64) != 1 {
		t.Errorf("second args = %v", second["args"])
	}
}
