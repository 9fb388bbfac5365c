package sweep

import (
	"context"
	"fmt"
	"sync"
)

// Fault injection for testing a sweep's failure paths. An Injector scripts
// faults against job keys — fail the Nth execution of this key, panic on
// that one, hang a third until cancellation — and InjectFaults splices it
// in front of any run function. The sweep and experiments tests drive the
// panic-recovery, error-policy, and interrupt paths with it (under
// -race); production code never constructs one.

// FaultKind selects what an injected fault does.
type FaultKind int

const (
	// FaultError makes the execution return an error.
	FaultError FaultKind = iota
	// FaultPanic makes the execution panic.
	FaultPanic
	// FaultHang blocks the execution until its context is canceled, then
	// returns the context's error — a hung cell that only an external
	// cancellation (or FailFast from another failure) can unstick.
	FaultHang
)

// FaultSpec scripts one fault: inject Kind on the Execution-th execution
// (1-based) of the job with Key; Execution 0 faults every execution of
// that key. For FaultError, Err overrides the injected error when non-nil.
type FaultSpec struct {
	Key       string
	Execution int
	Kind      FaultKind
	Err       error
}

// Injector counts executions per job key and serves the scripted faults.
// Safe for concurrent use by sweep workers.
type Injector struct {
	mu     sync.Mutex
	counts map[string]int
	specs  []FaultSpec
}

// NewInjector builds an injector from fault scripts.
func NewInjector(specs ...FaultSpec) *Injector {
	return &Injector{counts: make(map[string]int), specs: specs}
}

// Executions reports how many times jobs with the given key have started
// executing.
func (inj *Injector) Executions(key string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts[key]
}

// next records one execution of key and returns the fault scripted for it,
// if any.
func (inj *Injector) next(key string) (FaultSpec, int, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.counts[key]++
	n := inj.counts[key]
	for _, s := range inj.specs {
		if s.Key == key && (s.Execution == 0 || s.Execution == n) {
			return s, n, true
		}
	}
	return FaultSpec{}, n, false
}

// InjectFaults wraps fn so every execution first consults the injector: a
// matching fault fires instead of fn; everything else passes through. A
// nil injector returns fn unchanged.
func InjectFaults[O, R any](inj *Injector, fn func(context.Context, Job[O]) (R, error)) func(context.Context, Job[O]) (R, error) {
	if inj == nil {
		return fn
	}
	return func(ctx context.Context, j Job[O]) (R, error) {
		spec, n, ok := inj.next(j.Key)
		if !ok {
			return fn(ctx, j)
		}
		var zero R
		switch spec.Kind {
		case FaultPanic:
			panic(fmt.Sprintf("injected panic: %s (execution %d)", j.Key, n))
		case FaultHang:
			<-ctx.Done()
			return zero, ctx.Err()
		default:
			if spec.Err != nil {
				return zero, spec.Err
			}
			return zero, fmt.Errorf("injected error: %s (execution %d)", j.Key, n)
		}
	}
}
