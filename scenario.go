package agilepaging

import (
	"fmt"
	"sync"

	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
	"agilepaging/internal/workload"
)

// Scenario builds a custom guest execution script for cases the packaged
// workloads don't cover: it records OS-level operations (map regions, touch
// memory, snapshot copy-on-write, reclaim, switch processes) and replays
// them on a simulated machine under any technique.
//
// Operations are recorded against process IDs; the first CreateProcess'd
// PID runs first and Switch changes the scheduled process. Virtual
// addresses must lie below 2^48, the translated address space; Run fails
// on an op that names an address at or above it.
//
// Building a Scenario is not safe for concurrent use; running one is, once
// it is built.
type Scenario struct {
	// blocks is the op log: the recorded ops in order, cut into blocks of
	// at most workload.PackedChunkOps. The first block grows by append, so
	// a short script stays small; every later block is allocated at full
	// size, so recording an op never copies the ones before it.
	blocks [][]workload.Op
	n      int // ops recorded

	// digest caches the op list's repcache digest, which covers the first
	// digestOps ops; the log only grows, so a count that differs from n
	// means ops were recorded since. The zero digest means none yet.
	mu        sync.Mutex
	digest    repcache.OpsDigest
	digestOps int
}

// NewScenario starts an empty scenario with one process (PID 0) created and
// scheduled.
func NewScenario() *Scenario {
	s := &Scenario{}
	s.add(workload.Op{Kind: workload.OpCreateProcess, PID: 0})
	return s.add(workload.Op{Kind: workload.OpCtxSwitch, PID: 0})
}

// add appends op to the log.
func (s *Scenario) add(op workload.Op) *Scenario {
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last]) == workload.PackedChunkOps {
		var block []workload.Op
		if last >= 0 {
			block = make([]workload.Op, 0, workload.PackedChunkOps)
		}
		s.blocks = append(s.blocks, block)
		last++
	}
	s.blocks[last] = append(s.blocks[last], op)
	s.n++
	return s
}

// opsDigest returns the digest of the ops recorded so far, hashing them
// only if ops were recorded since the last call.
func (s *Scenario) opsDigest() repcache.OpsDigest {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.digestOps != s.n || s.digest == (repcache.OpsDigest{}) {
		s.digest = repcache.DigestOps(s.blocks...)
		s.digestOps = s.n
	}
	return s.digest
}

// AddProcess creates another guest process.
func (s *Scenario) AddProcess(pid int) *Scenario {
	return s.add(workload.Op{Kind: workload.OpCreateProcess, PID: pid})
}

// Switch schedules process pid on core 0.
func (s *Scenario) Switch(pid int) *Scenario { return s.SwitchOn(0, pid) }

// SwitchOn schedules process pid on the given core (SMP scenarios).
func (s *Scenario) SwitchOn(core, pid int) *Scenario {
	return s.add(workload.Op{Kind: workload.OpCtxSwitch, PID: pid, Core: core})
}

// Map registers a demand-paged region of length bytes at base for pid.
func (s *Scenario) Map(pid int, base, length uint64, ps PageSize) *Scenario {
	return s.add(workload.Op{Kind: workload.OpMmap, PID: pid, VA: base, Len: length, Size: ps.size()})
}

// Populate eagerly maps (and dirties) every page of the region at base.
func (s *Scenario) Populate(pid int, base uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpPopulate, PID: pid, VA: base})
}

// Unmap removes the region containing base.
func (s *Scenario) Unmap(pid int, base uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpMunmap, PID: pid, VA: base})
}

// Touch performs one load at va on core 0.
func (s *Scenario) Touch(pid int, va uint64) *Scenario { return s.TouchOn(0, pid, va) }

// TouchOn performs one load at va on the given core.
func (s *Scenario) TouchOn(core, pid int, va uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Core: core})
}

// Write performs one store at va on core 0.
func (s *Scenario) Write(pid int, va uint64) *Scenario { return s.WriteOn(0, pid, va) }

// WriteOn performs one store at va on the given core.
func (s *Scenario) WriteOn(core, pid int, va uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Write: true, Core: core})
}

// Fetch performs one instruction fetch at va on core 0 (I-TLB path).
func (s *Scenario) Fetch(pid int, va uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Fetch: true})
}

// TouchRange loads one address per page across [base, base+length).
func (s *Scenario) TouchRange(pid int, base, length uint64, ps PageSize) *Scenario {
	for off := uint64(0); off < length; off += ps.size().Bytes() {
		s.Touch(pid, base+off)
	}
	return s
}

// WriteRange stores one address per page across [base, base+length).
func (s *Scenario) WriteRange(pid int, base, length uint64, ps PageSize) *Scenario {
	for off := uint64(0); off < length; off += ps.size().Bytes() {
		s.Write(pid, base+off)
	}
	return s
}

// Snapshot write-protects the region containing base copy-on-write, as a
// fork or snapshot does (the paper's §II-B/§V COW scenario).
func (s *Scenario) Snapshot(pid int, base uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpMarkCOW, PID: pid, VA: base})
}

// Promote collapses the 2M-aligned range at va from 512 4K mappings into
// one 2M mapping, as transparent huge pages do (the paper's §V large-page
// support).
func (s *Scenario) Promote(pid int, va uint64) *Scenario {
	return s.add(workload.Op{Kind: workload.OpCollapse, PID: pid, VA: va})
}

// Reclaim runs the guest clock reclaimer over n pages (the paper's §V
// memory-pressure scenario).
func (s *Scenario) Reclaim(pid, n int) *Scenario {
	return s.add(workload.Op{Kind: workload.OpReclaim, PID: pid, N: n})
}

// Len reports the number of recorded operations.
func (s *Scenario) Len() int { return s.n }

// ScenarioConfig tunes scenario execution.
type ScenarioConfig struct {
	Technique Technique
	PageSize  PageSize
	// Cores is the number of simulated CPU cores (private TLBs, shared
	// VMM); 0 or 1 = uniprocessor.
	Cores int
	// HardwareAD and CtxSwitchCacheEntries enable the §IV optimizations.
	HardwareAD            bool
	CtxSwitchCacheEntries int
	// DisableMMUCaches removes PWC and nested TLB.
	DisableMMUCaches bool
}

// machineConfig is the machine configuration a replay under cfg runs on.
func (cfg ScenarioConfig) machineConfig() cpu.Config {
	mc := cpu.DefaultConfig(cfg.Technique.mode(), cfg.PageSize.size())
	mc.Cores = cfg.Cores
	mc.HardwareAD = cfg.HardwareAD
	mc.CtxSwitchCache = cfg.CtxSwitchCacheEntries
	mc.EnablePWC = !cfg.DisableMMUCaches
	mc.EnableNTLB = !cfg.DisableMMUCaches
	return mc
}

// Run replays the scenario under the given configuration. Errors name the
// failing op by its index in the script.
//
// Replays are memoized like experiment cells: a scenario is a pure function
// of its op list and configuration, so re-running an identical scenario
// (policy studies that replay one script under many knob settings revisit
// the same cells constantly) returns the stored report. The key covers the
// configuration and a digest of every op verbatim — record one more op and
// the next Run misses. The digest is computed once per op list and shared
// by every configuration the scenario is run under.
func (s *Scenario) Run(cfg ScenarioConfig) (Result, error) {
	mc := cfg.machineConfig()
	rep, err := repcache.Do(repcache.KeyForOps(mc, "scenario", s.opsDigest()), func() (cpu.Report, error) {
		m, err := cpu.AcquireMachine(mc)
		if err != nil {
			return cpu.Report{}, err
		}
		blocks := s.blocks
		next := func() ([]workload.Op, bool) {
			if len(blocks) == 0 {
				return nil, false
			}
			ops := blocks[0]
			blocks = blocks[1:]
			return ops, true
		}
		if err := m.RunChunks(next, 0); err != nil {
			// A failed replay leaves the machine mid-scenario; let the GC
			// have it rather than pool suspect state.
			return cpu.Report{}, fmt.Errorf("agilepaging: scenario: %w", err)
		}
		rep := m.Report("scenario")
		cpu.ReleaseMachine(m)
		return rep, nil
	})
	if err != nil {
		return Result{}, err
	}
	return newResult("scenario", cfg.Technique, cfg.PageSize, rep), nil
}
