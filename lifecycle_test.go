package agilepaging

import (
	"reflect"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
)

// lifecycleScenario builds a replay that exercises COW snapshots, large-page
// promotion, reclaim, and multi-process switching — the state a pooled
// machine must shed between runs.
func lifecycleScenario() *Scenario {
	base := uint64(0x4000_0000)
	s := NewScenario()
	s.Map(0, base, 2<<20, Page4K).Populate(0, base)
	s.TouchRange(0, base, 2<<20, Page4K)
	s.AddProcess(1).Map(1, base, 64<<12, Page4K).Switch(1)
	s.WriteRange(1, base, 64<<12, Page4K)
	s.Snapshot(1, base)
	s.Write(1, base+5<<12) // COW break
	s.Switch(0)
	s.Promote(0, base)
	s.TouchRange(0, base, 2<<20, Page4K)
	s.Reclaim(0, 32)
	s.Touch(0, base+9<<12)
	return s
}

// TestScenarioReplayPooledEquivalence pins the facade-level lifecycle
// contract: replaying a scenario on a pooled (reset) machine produces a
// result identical to the first, freshly constructed, run — for every
// technique.
func TestScenarioReplayPooledEquivalence(t *testing.T) {
	cpu.ResetMachinePool()
	t.Cleanup(func() {
		cpu.ResetMachinePool()
		repcache.Reset()
	})
	for _, tech := range []Technique{Native, Nested, Shadow, Agile} {
		t.Run(tech.String(), func(t *testing.T) {
			cfg := ScenarioConfig{Technique: tech, PageSize: Page4K}
			// Drop stored reports before every replay: this test is about
			// pooled-machine replays, so every Run must really re-simulate
			// rather than return a stored report.
			repcache.Reset()
			first, err := lifecycleScenario().Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				repcache.Reset()
				again, err := lifecycleScenario().Run(cfg)
				if err != nil {
					t.Fatalf("replay %d: %v", i, err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("replay %d on pooled machine diverged\nfresh:  %+v\nreplay: %+v", i, first, again)
				}
			}
		})
	}
	hits, misses, _, _ := cpu.MachinePoolStats()
	if hits == 0 || misses == 0 {
		t.Errorf("scenario replays did not exercise the pool: hits=%d misses=%d", hits, misses)
	}
}
