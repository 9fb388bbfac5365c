package experiments

import (
	"context"
	"reflect"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
)

// The report cache must be invisible in results: a warm re-run of any
// driver returns bit-identical output to its cold run, with the second run
// served from stored reports. Each subtest runs its driver cold (cache
// reset), then warm, deep-compares, and asserts the warm run actually hit.

func TestCachedVsFreshBitIdentity(t *testing.T) {
	const accesses, seed = 2000, 42
	drivers := []struct {
		name string
		run  func() (any, error)
		// uncached drivers run real simulations every time (µbench or
		// instrumented jobs) but must still produce identical results.
		wantHits bool
	}{
		{"Figure5", func() (any, error) {
			return Figure5Sweep(context.Background(), sweep.Config{}, []string{"dedup", "mcf"}, accesses, seed)
		}, true},
		{"TableV", func() (any, error) {
			return TableVSweep(context.Background(), sweep.Config{}, accesses, seed)
		}, true},
		{"Sensitivity", func() (any, error) {
			return SensitivitySweep(context.Background(), sweep.Config{}, accesses, seed)
		}, true},
		{"SHSP", func() (any, error) {
			return SHSPComparisonSweep(context.Background(), sweep.Config{}, []string{"memcached"}, accesses, seed)
		}, true},
		{"Ablations", func() (any, error) {
			return AblationsSweep(context.Background(), sweep.Config{}, accesses, seed)
		}, true},
		{"ValidateModel", func() (any, error) {
			return ValidateModelSweep(context.Background(), sweep.Config{}, "dedup", accesses, seed)
		}, true},
		{"TableVI", func() (any, error) {
			return TableVISweep(context.Background(), sweep.Config{}, []string{"dedup"}, accesses, seed)
		}, false},
		{"TableI", func() (any, error) {
			return TableISweep(context.Background(), sweep.Config{})
		}, false},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			repcache.Reset()
			cold, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			warm, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Fatal("warm (cached) results differ from cold run")
			}
			hits, _, _ := repcache.Stats()
			if d.wantHits && hits == 0 {
				t.Fatal("warm run recorded no cache hits")
			}
			if !d.wantHits && hits != 0 {
				t.Fatalf("uncacheable driver recorded %d cache hits", hits)
			}
		})
	}
}

// TestInstrumentedRunsBypassCache pins the bypass-by-construction property:
// a run with any observer attached never consults or populates the report
// cache (its observers must fire on every run), and CellKey refuses to key
// it.
func TestInstrumentedRunsBypassCache(t *testing.T) {
	repcache.Reset()
	o := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	o.Accesses = 1500

	if _, ok := CellKey("dedup", o); !ok {
		t.Fatal("plain options should be cacheable")
	}
	withMiss := o
	withMiss.OnWalk = new(trace.MissLog).Record
	if _, ok := CellKey("dedup", withMiss); ok {
		t.Fatal("CellKey accepted an instrumented cell")
	}

	// Two instrumented runs: both must simulate (the log fills twice) and
	// neither may touch the cache.
	var firstEntries, secondEntries int
	for i := 0; i < 2; i++ {
		var log trace.MissLog
		run := o
		run.OnWalk = log.Record
		if _, err := RunProfile("dedup", run); err != nil {
			t.Fatal(err)
		}
		n := log.Summary().Total
		if n == 0 {
			t.Fatalf("run %d: miss log empty — the run did not really simulate", i)
		}
		if i == 0 {
			firstEntries = int(n)
		} else {
			secondEntries = int(n)
		}
	}
	if firstEntries != secondEntries {
		t.Fatalf("instrumented runs diverged: %d vs %d logged misses", firstEntries, secondEntries)
	}
	if info := repcache.Info(); info.Hits != 0 || info.Misses != 0 || info.Reports != 0 {
		t.Fatalf("instrumented runs touched the report cache: %+v", info)
	}

	// An uninstrumented run of the same cell populates the cache, and a
	// later instrumented run still bypasses the now-present entry.
	if _, err := RunProfile("dedup", o); err != nil {
		t.Fatal(err)
	}
	if info := repcache.Info(); info.Misses != 1 || info.Reports != 1 {
		t.Fatalf("uninstrumented run did not populate the cache: %+v", info)
	}
	var log trace.MissLog
	run := o
	run.OnWalk = log.Record
	if _, err := RunProfile("dedup", run); err != nil {
		t.Fatal(err)
	}
	if log.Summary().Total == 0 {
		t.Fatal("instrumented run was served from cache (log empty)")
	}
	if info := repcache.Info(); info.Hits != 0 {
		t.Fatalf("instrumented run consumed a cache hit: %+v", info)
	}
}

// TestSweepDedupSharesCells verifies the report memo gives one simulation
// per unique cell: the same sweep run twice back-to-back after a reset
// simulates each of its 8 cells once (native is per-page-size distinct, so
// all 8 cells of one workload are unique), and the second run is all hits.
func TestSweepDedupSharesCells(t *testing.T) {
	repcache.Reset()
	if _, err := Figure5Sweep(context.Background(), sweep.Config{}, []string{"dedup"}, 1500, 42); err != nil {
		t.Fatal(err)
	}
	_, misses, _ := repcache.Stats()
	if misses != 8 {
		t.Fatalf("cold Figure5 sweep simulated %d cells, want 8", misses)
	}
	if _, err := Figure5Sweep(context.Background(), sweep.Config{}, []string{"dedup"}, 1500, 42); err != nil {
		t.Fatal(err)
	}
	hits, misses2, _ := repcache.Stats()
	if misses2 != 8 || hits != 8 {
		t.Fatalf("warm sweep: %d hits / %d misses, want 8/8", hits, misses2)
	}
}

// TestCrossExperimentCellSharing pins the tentpole motivation: the
// sensitivity sweep's unperturbed (×1.0/×1.0) cells are the same cells
// Figure 5 measures, so running sensitivity after Figure 5 (same accesses
// and seed) reuses those reports instead of re-simulating them.
func TestCrossExperimentCellSharing(t *testing.T) {
	repcache.Reset()
	const accesses, seed = 1500, 42
	if _, err := Figure5Sweep(context.Background(), sweep.Config{}, []string{"dedup"}, accesses, seed); err != nil {
		t.Fatal(err)
	}
	hitsBefore, _, _ := repcache.Stats()
	if _, err := SensitivitySweep(context.Background(), sweep.Config{}, accesses, seed); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _, _ := repcache.Stats()
	// The ×1.0/×1.0 row measures nested, shadow, agile at 4K — all three
	// already simulated by Figure 5.
	if got := hitsAfter - hitsBefore; got < 3 {
		t.Fatalf("sensitivity reused %d Figure 5 cells, want >= 3", got)
	}
}

// TestValidateModelReusesFigure5Cells: the model validation reads VM exits
// from its shadow and agile reports, so only the agile job (which attaches
// a miss log) is instrumented. Its native, nested and shadow cells are the
// ones Figure 5 already simulated at 4K.
func TestValidateModelReusesFigure5Cells(t *testing.T) {
	repcache.Reset()
	const accesses, seed = 1500, 42
	if _, err := Figure5Sweep(context.Background(), sweep.Config{}, []string{"dedup"}, accesses, seed); err != nil {
		t.Fatal(err)
	}
	hitsBefore, _, _ := repcache.Stats()
	if _, err := ValidateModelSweep(context.Background(), sweep.Config{}, "dedup", accesses, seed); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _, _ := repcache.Stats()
	if got := hitsAfter - hitsBefore; got < 3 {
		t.Fatalf("model validation reused %d Figure 5 cells, want >= 3", got)
	}
}
