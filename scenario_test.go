package agilepaging

import (
	"sync"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
	"agilepaging/internal/workload"
)

// TestScenarioRunAfterAppendResimulates guards the cached op digest: a
// Run, one more recorded op, and a second Run must simulate again and
// count the extra access, not return the first Run's stored report.
func TestScenarioRunAfterAppendResimulates(t *testing.T) {
	repcache.Reset()
	t.Cleanup(repcache.Reset)
	base := uint64(0x4000_0000)
	s := NewScenario().Map(0, base, 16<<12, Page4K).Populate(0, base)
	s.TouchRange(0, base, 16<<12, Page4K)
	cfg := ScenarioConfig{Technique: Agile, PageSize: Page4K}
	first, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, misses, _ := repcache.Stats()
	s.Write(0, base+3<<12)
	second, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, after, _ := repcache.Stats(); after != misses+1 {
		t.Errorf("Run after an append simulated %d times, want 1", after-misses)
	}
	if second.Accesses != first.Accesses+1 {
		t.Errorf("accesses = %d after an append, want %d", second.Accesses, first.Accesses+1)
	}
	if again, err := s.Run(cfg); err != nil || again != second {
		t.Errorf("re-run of the unchanged scenario = %+v, %v; want the stored %+v", again, err, second)
	}
}

// TestScenarioConcurrentRuns runs a fresh multi-block Scenario under every
// technique from two goroutines each, so they race to compute its op
// digest: the results must equal serial runs of an identical script, and
// each technique must simulate once.
func TestScenarioConcurrentRuns(t *testing.T) {
	build := func() *Scenario {
		base := uint64(0x4000_0000)
		s := NewScenario().Map(0, base, 2<<20, Page4K).Populate(0, base)
		for s.Len() <= 2*workload.PackedChunkOps {
			s.TouchRange(0, base, 2<<20, Page4K).Snapshot(0, base).WriteRange(0, base, 64<<12, Page4K)
		}
		return s
	}
	techs := Techniques()
	repcache.Reset()
	t.Cleanup(repcache.Reset)
	want := make([]Result, len(techs))
	for i, tech := range techs {
		var err error
		if want[i], err = build().Run(ScenarioConfig{Technique: tech, PageSize: Page4K}); err != nil {
			t.Fatal(err)
		}
	}

	s := build()
	repcache.Reset()
	const perTech = 2
	got := make([]Result, len(techs)*perTech)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = s.Run(ScenarioConfig{Technique: techs[i%len(techs)], PageSize: Page4K}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if res != want[i%len(techs)] {
			t.Errorf("concurrent run %d (%v) = %+v, want the serial %+v", i, techs[i%len(techs)], res, want[i%len(techs)])
		}
	}
	if _, misses, _ := repcache.Stats(); misses != uint64(len(techs)) {
		t.Errorf("%d concurrent runs simulated %d times, want %d", len(got), misses, len(techs))
	}
}

// TestScenarioErrorIndexPastBlockBoundary: the op log replays block by
// block, and an error must still name the op by its index in the whole
// script, exactly as a replay of the flat op list does.
func TestScenarioErrorIndexPastBlockBoundary(t *testing.T) {
	base := uint64(0x4000_0000)
	s := NewScenario().Map(0, base, 16<<12, Page4K).Populate(0, base)
	for s.Len() < workload.PackedChunkOps {
		s.Touch(0, base+uint64(s.Len()%16)<<12)
	}
	s.Touch(0, base|1<<48) // op PackedChunkOps: the first of the second block
	if len(s.blocks) != 2 || len(s.blocks[1]) != 1 {
		t.Fatalf("blocks hold %d ops in %d blocks, want the last op alone in the second", s.Len(), len(s.blocks))
	}
	cfg := ScenarioConfig{Technique: Shadow, PageSize: Page4K}
	_, err := s.Run(cfg)
	if err == nil {
		t.Fatal("Run accepted a VA above 2^48")
	}

	var flat []workload.Op
	for _, block := range s.blocks {
		flat = append(flat, block...)
	}
	m, merr := cpu.AcquireMachine(cfg.machineConfig())
	if merr != nil {
		t.Fatal(merr)
	}
	flatErr := m.RunOps(flat, 0)
	if flatErr == nil {
		t.Fatal("RunOps accepted a VA above 2^48")
	}
	if want := "agilepaging: scenario: " + flatErr.Error(); err.Error() != want {
		t.Errorf("Run error = %q, want %q", err, want)
	}
}
