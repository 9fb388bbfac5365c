// Package sweep is the deterministic parallel job runner underneath the
// experiments layer.
//
// Every experiment driver in this repository is structurally the same
// program: enumerate a configuration space (workload × page size ×
// technique × knobs), simulate each point independently, and assemble the
// results into a table. The simulations share nothing — each cpu.Machine
// owns its memory, page tables, TLBs and statistics — so the sweep is
// embarrassingly parallel. This package factors the orchestration out of
// the drivers: a sweep is declared as an ordered []Job and executed on a
// bounded worker pool, and Run returns results in declaration order, so
// parallel output is bit-identical to a serial run regardless of
// scheduling.
//
// Determinism contract: the caller's run function must derive its result
// only from the job it is handed (plus its own seeded state). Under that
// contract Run(jobs, fn) with any worker count returns exactly what a
// serial loop over jobs would; the experiments package's equivalence tests
// and -race runs enforce it.
//
// Fault tolerance: a job that panics does not kill the process — the panic
// is recovered into a *PanicError and treated as that job's failure.
// Config.ErrorPolicy selects what a failure does to the rest of the sweep
// (FailFast cancels it, CollectAll keeps running and joins every failure).
// Failed jobs are not retried: a job is a pure function of its key, so it
// would fail the same way again. Execute exposes the full outcome,
// including a per-job completion mask, so callers can render partial
// result tables; Run is the errors-only view.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job describes one point of a sweep: an identifying key (used in progress
// reporting and error messages), the workload it simulates, and the
// driver-specific options the run function consumes.
type Job[O any] struct {
	// Key identifies the job in progress output and wrapped errors
	// (e.g. "dedup/4K/agile").
	Key string
	// Workload names the workload the job simulates ("" for
	// microbenchmark jobs that build their own op streams).
	Workload string
	// Options carries the driver-specific run parameters.
	Options O
	// DedupKey, when non-empty, is the job's canonical content key: two
	// jobs with equal DedupKeys are declared to produce identical results,
	// so Run executes only the first and copies its result to the rest.
	// "" (the default) opts the job out of deduplication. The experiments
	// layer sets this to the repcache cell key for uninstrumented
	// simulation cells and leaves it empty for everything else.
	DedupKey string
}

// Progress is a snapshot delivered to Config.OnProgress after each job
// completes successfully.
type Progress struct {
	// Done and Total count successfully completed and executed jobs.
	// Deduplicated jobs are not executed, so Total is the unique-job
	// count, not len(jobs). Failed jobs never report progress, so under
	// CollectAll a sweep with failures finishes with Done < Total.
	Done, Total int
	// Deduped is the number of declared jobs folded into another job's
	// execution by DedupKey (constant across one sweep).
	Deduped int
	// Key is the key of the job that just finished.
	Key string
	// Elapsed is that job's wall-clock run time.
	Elapsed time.Duration
}

// ErrorPolicy selects how a sweep responds to job failures.
type ErrorPolicy int

const (
	// FailFast — the zero value and historical behavior — cancels the
	// sweep on the first observed failure: running jobs see their context
	// canceled, unstarted jobs never start, and the sweep error is that
	// first failure wrapped in a *JobError. "First observed" is a
	// wall-clock race, not declaration order: when two jobs fail
	// concurrently, which one wins depends on scheduling. Callers needing
	// a deterministic error set must use CollectAll.
	FailFast ErrorPolicy = iota
	// CollectAll runs every job regardless of failures and returns the
	// failures joined (errors.Join) in declaration order, each wrapped in
	// a *JobError — deterministic under any scheduling. Completed jobs
	// keep their results; Execute's Completed mask says which slots hold
	// real results.
	CollectAll
)

// Config parameterizes a sweep execution. The zero value runs on
// runtime.GOMAXPROCS(0) workers with no progress reporting and the
// FailFast error policy.
type Config struct {
	// Workers bounds the worker pool; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is invoked after each job completes.
	// Invocations are serialized (the callback needs no locking) but
	// arrive in completion order, not declaration order. A panic in the
	// callback does not poison the sweep: it is recovered, further
	// callbacks are suppressed, and the panic surfaces in the sweep error
	// once the pool drains.
	OnProgress func(Progress)
	// ErrorPolicy selects the response to job failures (default FailFast).
	ErrorPolicy ErrorPolicy
}

func (c Config) workers(jobs int) int {
	n := c.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	return n
}

// PanicError is a panic recovered from a sweep job (or from the OnProgress
// callback), converted into an ordinary error so one bad cell cannot kill
// the process.
type PanicError struct {
	// Value is the value the job panicked with.
	Value any
	// Stack is the panicking goroutine's stack, captured at the recovery
	// point (debug.Stack). It is not part of Error() — error strings stay
	// single-line and deterministic — so callers wanting the trace must
	// errors.As the sweep error and read it here.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// JobError attributes a job failure to its declaration index and key.
// Every job failure a sweep reports is wrapped in one.
type JobError struct {
	// Index is the job's position in the declared job list.
	Index int
	// Key is the job's Key field ("" if the job declared none).
	Key string
	// Err is the failure itself (possibly a *PanicError).
	Err error
}

func (e *JobError) Error() string {
	if e.Key != "" {
		return fmt.Sprintf("sweep: job %d (%s): %v", e.Index, e.Key, e.Err)
	}
	return fmt.Sprintf("sweep: job %d: %v", e.Index, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Outcome is the full record of a sweep execution, indexed by job
// declaration order.
type Outcome[R any] struct {
	// Results holds every job's result in declaration order. Slots whose
	// jobs failed or never ran hold zero values — consult Completed to
	// tell a real zero-valued result from an absent one.
	Results []R
	// Completed[i] reports whether Results[i] holds a real result: the
	// job (or the representative it deduplicated into) ran to success.
	Completed []bool
	// JobErrors[i] is job i's failure as a *JobError, nil if the job
	// completed or never ran. A deduplicated job's failure is recorded on
	// its representative only; its aliases stay nil with Completed false.
	// Under FailFast the set is best-effort (jobs canceled by the first
	// failure record nothing); under CollectAll it is complete and
	// deterministic.
	JobErrors []error
	// Err is the sweep verdict; see Run for the policy-specific contract.
	Err error
}

// CompletedCount returns how many declared jobs hold real results.
func (o Outcome[R]) CompletedCount() int {
	n := 0
	for _, c := range o.Completed {
		if c {
			n++
		}
	}
	return n
}

// Run executes fn for every job on a bounded worker pool and returns the
// results in job declaration order. It is Execute reduced to the classic
// (results, error) shape; callers that need the per-job completion mask or
// error attribution use Execute directly.
//
// Deduplication: jobs sharing a non-empty DedupKey execute once — the
// first declaration-order occurrence is the representative; after the
// sweep completes its result is copied to every duplicate's slot. The
// worker pool only ever sees unique jobs, so a sweep whose tail is all
// duplicates finishes when its unique jobs do (no stragglers), and
// Progress.Total counts unique jobs.
//
// Panics: a panicking job does not crash the process; the panic is
// recovered into a *PanicError carrying the stack and handled as that
// job's failure (reported like any other error).
//
// Errors and cancellation, under FailFast (the default): the first
// observed failure — a scheduling race when several jobs fail
// concurrently, so NOT guaranteed deterministic — cancels the context
// passed to still-running jobs, prevents unstarted jobs from starting,
// and is returned wrapped in a *JobError with its job index and key.
// Under CollectAll every job runs; the returned error joins every failure
// in declaration order (deterministic under any scheduling), each wrapped
// in a *JobError.
//
// External cancellation: if ctx is canceled from outside, Run stops
// claiming jobs and returns ctx.Err(). A job that returns the
// cancellation error (or wraps it) after cancellation is a casualty, not
// a failure — it is never attributed as a job error. Job failures that
// happened before or despite the cancellation still win under FailFast
// and join the cancellation under CollectAll.
//
// On error the returned slice still holds the results of the jobs that
// completed; unfinished entries are zero values.
func Run[O, R any](ctx context.Context, cfg Config, jobs []Job[O], fn func(context.Context, Job[O]) (R, error)) ([]R, error) {
	out := Execute(ctx, cfg, jobs, fn)
	return out.Results, out.Err
}

// Execute is Run returning the full Outcome: declaration-ordered results,
// the completion mask, per-job error attribution, and the sweep verdict.
func Execute[O, R any](ctx context.Context, cfg Config, jobs []Job[O], fn func(context.Context, Job[O]) (R, error)) Outcome[R] {
	out := Outcome[R]{
		Results:   make([]R, len(jobs)),
		Completed: make([]bool, len(jobs)),
		JobErrors: make([]error, len(jobs)),
	}
	if fn == nil {
		out.Err = errors.New("sweep: nil run function")
		return out
	}
	if len(jobs) == 0 {
		out.Err = ctx.Err()
		return out
	}

	// Dedup pass: order lists the indexes that actually execute, in
	// declaration order; alias maps every folded index to its
	// representative. A representative is always the first occurrence of
	// its DedupKey, so alias targets precede their sources.
	order := make([]int, 0, len(jobs))
	var alias map[int]int
	firstByKey := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.DedupKey != "" {
			if rep, ok := firstByKey[j.DedupKey]; ok {
				if alias == nil {
					alias = make(map[int]int)
				}
				alias[i] = rep
				continue
			}
			firstByKey[j.DedupKey] = i
		}
		order = append(order, i)
	}
	deduped := len(jobs) - len(order)

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next int64 = -1 // atomically claimed cursor into order
		wg   sync.WaitGroup
		mu   sync.Mutex // guards done/firstFailure/progress* and serializes OnProgress
		done int
		// firstFailure is the first failure any worker observed; under
		// FailFast it is the sweep error.
		firstFailure *JobError
		// progressPanic records a panicking OnProgress callback;
		// progressDead suppresses further invocations once it happens so
		// the pool keeps draining.
		progressPanic *PanicError
		progressDead  bool
	)

	// runJob runs fn once, converting a panic into a *PanicError.
	runJob := func(j Job[O]) (r R, err error) {
		defer func() {
			if v := recover(); v != nil {
				var zero R
				r, err = zero, &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, j)
	}

	// reportProgress serializes the user callback and shields the pool
	// from callback panics: the lock is released normally (the recover
	// stops the unwind inside the closure), the callback is disabled, and
	// the panic surfaces in the sweep error after the pool drains.
	reportProgress := func(key string, elapsed time.Duration) {
		mu.Lock()
		done++
		p := Progress{Done: done, Total: len(order), Deduped: deduped, Key: key, Elapsed: elapsed}
		if !progressDead {
			func() {
				defer func() {
					if v := recover(); v != nil {
						progressDead = true
						progressPanic = &PanicError{Value: v, Stack: debug.Stack()}
					}
				}()
				cfg.OnProgress(p)
			}()
		}
		mu.Unlock()
	}

	worker := func() {
		defer wg.Done()
		for {
			o := int(atomic.AddInt64(&next, 1))
			if o >= len(order) {
				return
			}
			// A failed (FailFast) or canceled sweep starts no further
			// jobs; claimed indexes keep their zero results.
			if ctx.Err() != nil {
				return
			}
			i := order[o]
			start := time.Now()
			r, err := runJob(jobs[i])
			if err != nil {
				// A job reporting the context's own error after
				// cancellation is a casualty of the cancellation, not a
				// failing job: record nothing and let the pool drain.
				if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
					continue
				}
				je := &JobError{Index: i, Key: jobs[i].Key, Err: err}
				mu.Lock()
				out.JobErrors[i] = je
				if firstFailure == nil {
					firstFailure = je
				}
				mu.Unlock()
				if cfg.ErrorPolicy == FailFast {
					cancel()
					return
				}
				continue
			}
			out.Results[i] = r
			out.Completed[i] = true
			if cfg.OnProgress != nil {
				reportProgress(jobs[i].Key, time.Since(start))
			}
		}
	}
	n := cfg.workers(len(order))
	wg.Add(n)
	for w := 0; w < n; w++ {
		go worker()
	}
	wg.Wait()

	// Fan deduplicated results back out. Representatives precede their
	// aliases; a failed representative leaves its aliases zero-valued and
	// incomplete.
	for i, rep := range alias {
		if out.Completed[rep] {
			out.Results[i] = out.Results[rep]
			out.Completed[i] = true
		}
	}

	out.Err = verdict(cfg.ErrorPolicy, out.JobErrors, firstFailure, progressPanic, parent.Err())
	return out
}

// verdict assembles the sweep error from the recorded failures, the parent
// context's state, and any OnProgress panic.
func verdict(policy ErrorPolicy, jobErrors []error, firstFailure *JobError, progressPanic *PanicError, parentErr error) error {
	var progressErr error
	if progressPanic != nil {
		progressErr = fmt.Errorf("sweep: OnProgress callback: %w", progressPanic)
	}
	if policy == FailFast {
		switch {
		case firstFailure != nil && progressErr != nil:
			return errors.Join(firstFailure, progressErr)
		case firstFailure != nil:
			return firstFailure
		case parentErr != nil && progressErr != nil:
			return errors.Join(parentErr, progressErr)
		case parentErr != nil:
			return parentErr
		default:
			return progressErr // nil when nothing went wrong
		}
	}
	// CollectAll: join every failure in declaration order — deterministic
	// under any scheduling — then the external cancellation (so
	// errors.Is(err, context.Canceled) holds for interrupted sweeps) and
	// the callback panic. A lone cancellation returns bare, per the
	// external-cancellation contract.
	var joined []error
	for _, je := range jobErrors {
		if je != nil {
			joined = append(joined, je)
		}
	}
	if parentErr != nil {
		joined = append(joined, parentErr)
	}
	if progressErr != nil {
		joined = append(joined, progressErr)
	}
	switch len(joined) {
	case 0:
		return nil
	case 1:
		return joined[0]
	default:
		return errors.Join(joined...)
	}
}
