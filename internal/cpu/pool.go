package cpu

import "sync"

// Machine pooling: sweeps run thousands of cells over a handful of machine
// geometries, and full construction (memsim arena, per-core TLB hierarchies,
// PWCs, walkers, VMM, guest OS) is identical work per cell. The pool keeps
// retired machines keyed by their Geometry and hands them back through
// Machine.Reset, which restores pristine post-New state allocation-free —
// so a pooled reacquire costs a reset instead of a rebuild, and the GC
// never sees the discarded stack. Modeled on the shared stream cache
// (workload.SharedStream): process-wide, mutex-guarded, stats-reporting.

// DefaultMachinePoolCapacity bounds the number of idle machines retained
// across all geometries. A Compare sweep touches 4 techniques × 2 page
// sizes plus multicore variants; 16 keeps every geometry of the standard
// sweeps warm without holding arenas for unbounded one-off shapes.
const DefaultMachinePoolCapacity = 16

// machinePool is the process-wide idle-machine pool.
var machinePool = struct {
	mu      sync.Mutex
	idle    map[Geometry][]*Machine
	count   int // total idle machines across all geometries
	hits    uint64
	misses  uint64
	retired uint64 // machines handed to Release but dropped (pool full)
}{
	idle: make(map[Geometry][]*Machine),
}

// AcquireMachine returns a machine for cfg: a pooled machine of matching
// geometry reset to New(cfg) state when one is idle, a freshly built one
// otherwise. Pass the machine to ReleaseMachine when the run is done.
func AcquireMachine(cfg Config) (*Machine, error) {
	cfg.normalize()
	geo := cfg.Geometry()
	p := &machinePool
	p.mu.Lock()
	var m *Machine
	if ms := p.idle[geo]; len(ms) > 0 {
		m = ms[len(ms)-1]
		ms[len(ms)-1] = nil
		p.idle[geo] = ms[:len(ms)-1]
		p.count--
		p.hits++
	} else {
		p.misses++
	}
	p.mu.Unlock()
	if m == nil {
		return New(cfg)
	}
	if err := m.Reset(cfg); err != nil {
		// Geometry was verified equal, so this is unreachable in practice;
		// fall back to a fresh build rather than return a half-reset machine.
		return New(cfg)
	}
	return m, nil
}

// ReleaseMachine returns a machine to the pool for later reuse. The caller
// must not touch m afterwards. Machines beyond DefaultMachinePoolCapacity
// are dropped to the garbage collector. Passing nil is a no-op.
func ReleaseMachine(m *Machine) {
	if m == nil {
		return
	}
	geo := m.cfg.Geometry()
	p := &machinePool
	p.mu.Lock()
	if p.count < DefaultMachinePoolCapacity {
		p.idle[geo] = append(p.idle[geo], m)
		p.count++
	} else {
		p.retired++
	}
	p.mu.Unlock()
}

// MachinePoolStats reports pool effectiveness: hits are acquisitions served
// by resetting an idle machine, misses built fresh, retired counts machines
// dropped at Release because the pool was full, and idle is the
// current pooled-machine count.
func MachinePoolStats() (hits, misses, retired uint64, idle int) {
	p := &machinePool
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.retired, p.count
}

// ResetMachinePool drops every idle machine and zeroes the statistics
// (tests and memory-sensitive callers).
func ResetMachinePool() {
	p := &machinePool
	p.mu.Lock()
	p.idle = make(map[Geometry][]*Machine)
	p.count = 0
	p.hits = 0
	p.misses = 0
	p.retired = 0
	p.mu.Unlock()
}
