package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
)

// TestTelemetryPurity pins the observability contract: attaching the epoch
// recorder and the walk-event ring must leave every simulated counter
// bit-identical. A telemetry layer that perturbs results would silently
// invalidate every golden number.
func TestTelemetryPurity(t *testing.T) {
	for _, tech := range Techniques() {
		t.Run(tech.String(), func(t *testing.T) {
			run := func(o Options) (interface{}, *telemetry.Recorder) {
				rep, err := RunProfile("dedup", o)
				if err != nil {
					t.Fatal(err)
				}
				return rep, o.Metrics
			}
			base := DefaultOptions(tech, pagetable.Size4K)
			base.Accesses = 30_000

			plain, _ := run(base)

			instrumented := base
			instrumented.Metrics = telemetry.NewRecorder(2_000)
			instrumented.OnWalk = telemetry.NewEventRing(256).Record
			withTel, rec := run(instrumented)

			if !reflect.DeepEqual(plain, withTel) {
				t.Errorf("telemetry perturbed the %s report:\nplain: %+v\nwith:  %+v", tech, plain, withTel)
			}
			if len(rec.Series().Epochs) == 0 {
				t.Error("recorder captured no epochs")
			}
		})
	}
}

// TestTelemetryEpochAccounting: the epoch series must tile the measured
// window. Boundaries chain, clocks are monotone, and for every cumulative
// counter the epoch deltas sum to the end-of-run report's value — the
// report is the final snapshot of the same schema, so nothing may be
// counted on one path and not the other. The cases cover the two places
// the paths once disagreed: the hardware A/D walk charge, and SHSP's mode
// switches after a warmup.
//
// Known gap: ResetMeasurement does not zero the policy's decision counters
// (SwitchesTo*, DirtyScans), so decisions taken during warmup reach the
// report but no epoch. None of these cases decides anything in warmup;
// an agile run without the start-nested delay does (see ROADMAP.md).
func TestTelemetryEpochAccounting(t *testing.T) {
	shadowHWAD := DefaultOptions(walker.ModeShadow, pagetable.Size4K)
	shadowHWAD.HardwareAD = true

	shsp := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	shsp.UseSHSP = true
	shsp.Accesses = 60_000
	shsp.Warmup = 60_000

	agile := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	agile.Accesses = 10_500

	cases := []struct {
		name     string
		epochLen int
		o        Options
		run      func(Options) (cpu.Report, error)
		// epochs, when non-zero, pins the series length; full epochs
		// must then hold exactly epochLen accesses.
		epochs int
		// check names a counter the case exists to exercise; it must be
		// non-zero in the report.
		check func(cpu.Report) uint64
	}{
		{
			name: "agile/dedup", epochLen: 1_000, o: agile, epochs: 11,
			run:   func(o Options) (cpu.Report, error) { return RunProfile("dedup", o) },
			check: func(r cpu.Report) uint64 { return r.Accesses },
		},
		{
			name: "shadow+hwAD/read-then-write", epochLen: 100, o: shadowHWAD,
			run: func(o Options) (cpu.Report, error) {
				rep, _, err := RunOps("read-then-write", readThenWriteOps(512), o)
				return rep, err
			},
			check: func(r cpu.Report) uint64 { return r.WalkCycles },
		},
		{
			name: "shsp/memcached", epochLen: 5_000, o: shsp,
			run:   func(o Options) (cpu.Report, error) { return RunProfile("memcached", o) },
			check: func(r cpu.Report) uint64 { return r.SwitchesToNested + r.SwitchesToShadow },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := telemetry.NewRecorder(tc.epochLen)
			o := tc.o
			o.Metrics = rec
			rep, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check(rep) == 0 {
				t.Fatal("the run does not exercise the counter this case is for")
			}
			s := rec.Series()
			if tc.epochs != 0 && len(s.Epochs) != tc.epochs {
				t.Fatalf("epochs = %d, want %d", len(s.Epochs), tc.epochs)
			}
			for i, e := range s.Epochs {
				if i > 0 {
					prev := s.Epochs[i-1]
					if e.StartAccesses != prev.EndAccesses || e.StartClock != prev.EndClock {
						t.Errorf("epoch %d does not chain: %+v after %+v", i, e, prev)
					}
				}
				if e.EndClock < e.StartClock {
					t.Errorf("epoch %d clock not monotone", i)
				}
				if tc.epochs != 0 && i < tc.epochs-1 && e.Delta.Accesses != uint64(tc.epochLen) {
					t.Errorf("epoch %d accesses = %d, want %d", i, e.Delta.Accesses, tc.epochLen)
				}
			}
			// Machine accesses exceed the op count (instruction fetches
			// translate too); the series must tile exactly whatever the
			// machine measured, counter by counter.
			for _, f := range tilingMismatches(s.Epochs, rep.Counters) {
				t.Error(f)
			}
		})
	}
}

// tilingMismatches lists the cumulative fields (uint64 scalars and array
// elements) whose epoch deltas do not sum to the report's value. Clock is
// skipped: it is a timestamp that warmup does not reset, so epochs chain
// its values rather than sum to it.
func tilingMismatches(epochs []telemetry.Epoch, rep telemetry.Counters) []string {
	var out []string
	check := func(name string, field func(telemetry.Counters) reflect.Value) {
		var sum uint64
		for _, e := range epochs {
			sum += field(e.Delta).Uint()
		}
		if want := field(rep).Uint(); sum != want {
			out = append(out, fmt.Sprintf("%s: epochs sum to %d, report says %d", name, sum, want))
		}
	}
	typ := reflect.TypeOf(rep)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Name == "Clock":
		case f.Type.Kind() == reflect.Uint64:
			check(f.Name, func(c telemetry.Counters) reflect.Value { return reflect.ValueOf(c).Field(i) })
		case f.Type.Kind() == reflect.Array && f.Type.Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Type.Len(); j++ {
				check(fmt.Sprintf("%s[%d]", f.Name, j), func(c telemetry.Counters) reflect.Value {
					return reflect.ValueOf(c).Field(i).Index(j)
				})
			}
		}
	}
	return out
}

// TestMissLogWriteBitsSurviveRoundTrip is the regression test for the
// dropped write bit: a write-heavy run must produce write-flagged records,
// and the flags must survive a save/load cycle.
func TestMissLogWriteBitsSurviveRoundTrip(t *testing.T) {
	var miss trace.MissLog
	o := DefaultOptions(walker.ModeShadow, pagetable.Size4K)
	o.AgileStartNested = false
	o.OnWalk = miss.Record
	// readThenWriteOps stores to every page after reading it, so write
	// misses (and shadow write-protect retries) are guaranteed.
	if _, _, err := RunOps("write-heavy", readThenWriteOps(64), o); err != nil {
		t.Fatal(err)
	}
	s := miss.Summary()
	if s.Writes == 0 {
		t.Fatal("write-heavy run produced no write-flagged records (write bit dropped again?)")
	}
	var buf bytes.Buffer
	if err := miss.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadMissLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ls := loaded.Summary()
	if ls.Writes != s.Writes || ls.Retries != s.Retries || ls.Total != s.Total {
		t.Errorf("round trip changed summary: %+v -> %+v", s, ls)
	}
}

// TestAdaptationCurveConverges: the tentpole's headline claim. Under the
// churn microbenchmark the per-epoch page-table update cost must start in
// the VMM-mediated range (the shadowed subtree traps every update) and
// converge toward direct-write cost once the write threshold flips the
// churned subtree to nested mode — Table I's agile cell, resolved in time.
func TestAdaptationCurveConverges(t *testing.T) {
	ring := telemetry.NewEventRing(512)
	s, err := AdaptationCurve(2_000, 10, ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Epochs) < 4 {
		t.Fatalf("epochs = %d", len(s.Epochs))
	}
	// Epoch 0 is diluted by the setup-phase populate (tables not yet
	// shadowed write direct); epoch 1 is pure churn and fully mediated.
	early := s.Epochs[1].UpdateCost()
	last := s.Epochs[len(s.Epochs)-1].UpdateCost()
	if early <= last {
		t.Errorf("update cost did not fall: epoch 1 = %.0f, final = %.0f", early, last)
	}
	if early < 500 {
		t.Errorf("pre-adaptation update cost = %.0f cycles/update, want VMM-mediated (>= 500)", early)
	}
	// After adaptation the churned subtree is nested: updates go direct and
	// the residual mediated cost per update is far below a single trap.
	if last >= 500 {
		t.Errorf("final update cost = %.0f cycles/update, want < 500 after adaptation", last)
	}
	var flips uint64
	for _, e := range s.Epochs {
		flips += e.Delta.SwitchesToNested
	}
	if flips == 0 {
		t.Error("series shows no Shadow=>Nested switch decisions")
	}
	if ring.Total() == 0 {
		t.Error("event ring captured no walks")
	}
	if FormatAdaptation(s) == "" {
		t.Error("empty adaptation rendering")
	}
}
