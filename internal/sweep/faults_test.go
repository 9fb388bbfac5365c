package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// okFn is the trivially healthy run function the fault tests inject into.
func okFn(_ context.Context, j Job[int]) (int, error) { return j.Options * 10, nil }

// TestInjectorScripts pins the injector semantics the other tests rely on:
// per-key execution counting, 1-based Nth-execution matching, and
// Execution 0 matching every execution.
func TestInjectorScripts(t *testing.T) {
	boom := errors.New("boom")
	inj := NewInjector(
		FaultSpec{Key: "a", Execution: 2, Kind: FaultError, Err: boom},
		FaultSpec{Key: "b", Kind: FaultError},
	)
	fn := InjectFaults(inj, okFn)
	ctx := context.Background()
	if _, err := fn(ctx, Job[int]{Key: "a"}); err != nil {
		t.Fatalf("execution 1 of a faulted: %v", err)
	}
	if _, err := fn(ctx, Job[int]{Key: "a"}); !errors.Is(err, boom) {
		t.Fatalf("execution 2 of a = %v, want boom", err)
	}
	if _, err := fn(ctx, Job[int]{Key: "a"}); err != nil {
		t.Fatalf("execution 3 of a faulted: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fn(ctx, Job[int]{Key: "b"}); err == nil {
			t.Fatalf("execution %d of b did not fault (Execution 0 = every)", i+1)
		}
	}
	if got := inj.Executions("a"); got != 3 {
		t.Fatalf("Executions(a) = %d, want 3", got)
	}
	if got := inj.Executions("unseen"); got != 0 {
		t.Fatalf("Executions(unseen) = %d, want 0", got)
	}
	if got := InjectFaults[int, int](nil, okFn); got == nil {
		t.Fatal("nil injector returned nil fn")
	}
}

// TestPanicRecovered proves a panicking job cannot kill the process: the
// panic comes back as a *PanicError (with the stack captured) inside a
// *JobError naming the cell.
func TestPanicRecovered(t *testing.T) {
	inj := NewInjector(FaultSpec{Key: "job-3", Kind: FaultPanic})
	_, err := Run(context.Background(), Config{Workers: 2}, jobList(8), InjectFaults(inj, okFn))
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Index != 3 || je.Key != "job-3" {
		t.Fatalf("attribution wrong: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no PanicError in chain: %v", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "injected panic: job-3") {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "sweep") {
		t.Fatalf("stack not captured: %q", pe.Stack)
	}
	if strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("error string leaks the stack: %q", err.Error())
	}
}

// TestCollectAllRunsEverything verifies CollectAll executes every job
// despite failures, fills the completion mask exactly, attributes each
// failure, and keeps every success's result.
func TestCollectAllRunsEverything(t *testing.T) {
	for _, workers := range []int{1, 4} {
		inj := NewInjector(
			FaultSpec{Key: "job-2", Kind: FaultError},
			FaultSpec{Key: "job-5", Kind: FaultPanic},
		)
		var ran int64
		out := Execute(context.Background(), Config{Workers: workers, ErrorPolicy: CollectAll},
			jobList(8), InjectFaults(inj, func(_ context.Context, j Job[int]) (int, error) {
				atomic.AddInt64(&ran, 1)
				return j.Options * 10, nil
			}))
		if out.Err == nil {
			t.Fatalf("workers=%d: failures not reported", workers)
		}
		if got := atomic.LoadInt64(&ran); got != 6 {
			t.Fatalf("workers=%d: %d healthy jobs ran, want 6", workers, got)
		}
		for i := 0; i < 8; i++ {
			failed := i == 2 || i == 5
			if out.Completed[i] == failed {
				t.Errorf("workers=%d: Completed[%d] = %v", workers, i, out.Completed[i])
			}
			if failed {
				var je *JobError
				if !errors.As(out.JobErrors[i], &je) || je.Index != i {
					t.Errorf("workers=%d: JobErrors[%d] = %v", workers, i, out.JobErrors[i])
				}
				if out.Results[i] != 0 {
					t.Errorf("workers=%d: failed slot %d holds %d", workers, i, out.Results[i])
				}
			} else if out.Results[i] != i*10 {
				t.Errorf("workers=%d: Results[%d] = %d, want %d", workers, i, out.Results[i], i*10)
			}
		}
		if got := out.CompletedCount(); got != 6 {
			t.Fatalf("workers=%d: CompletedCount = %d, want 6", workers, got)
		}
		if msg := out.Err.Error(); !strings.Contains(msg, "sweep: job 2 (job-2):") ||
			!strings.Contains(msg, "sweep: job 5 (job-5): panic:") {
			t.Fatalf("workers=%d: joined error = %q", workers, msg)
		}
	}
}

// TestCollectAllErrorDeterministic verifies the CollectAll error set is
// identical under any scheduling: the joined message — failures in
// declaration order — matches byte-for-byte across worker counts.
func TestCollectAllErrorDeterministic(t *testing.T) {
	run := func(workers int) string {
		inj := NewInjector(
			FaultSpec{Key: "job-1", Kind: FaultError},
			FaultSpec{Key: "job-4", Kind: FaultError},
			FaultSpec{Key: "job-6", Kind: FaultError},
		)
		_, err := Run(context.Background(), Config{Workers: workers, ErrorPolicy: CollectAll},
			jobList(8), InjectFaults(inj, func(_ context.Context, j Job[int]) (int, error) {
				// Scramble completion order so declaration-order joining
				// is doing real work.
				time.Sleep(time.Duration(8-j.Options) * 200 * time.Microsecond)
				return j.Options, nil
			}))
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		return err.Error()
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d error differs:\n%q\nvs serial:\n%q", workers, got, want)
		}
	}
}

// TestExternalCancelNotAttributed pins the cancellation-attribution fix: a
// job that returns the canceled context's error — bare or wrapped — after
// an external cancellation is a casualty, and Run returns the bare
// cancellation instead of blaming the job.
func TestExternalCancelNotAttributed(t *testing.T) {
	for _, policy := range []ErrorPolicy{FailFast, CollectAll} {
		ctx, cancel := context.WithCancel(context.Background())
		fn := func(ctx context.Context, j Job[int]) (int, error) {
			if j.Options == 0 {
				cancel() // the "user hit ^C" moment
			}
			<-ctx.Done()
			if j.Options%2 == 0 {
				return 0, ctx.Err() // bare
			}
			return 0, fmt.Errorf("stream copy: %w", ctx.Err()) // wrapped
		}
		_, err := Run(ctx, Config{Workers: 4, ErrorPolicy: policy}, jobList(4), fn)
		if err != context.Canceled {
			t.Errorf("policy=%v: err = %v, want bare context.Canceled", policy, err)
		}
		var je *JobError
		if errors.As(err, &je) {
			t.Errorf("policy=%v: cancellation misattributed to job %d", policy, je.Index)
		}
		cancel()
	}
}

// TestOwnCanceledErrorIsFailure is the flip side of the attribution fix: a
// job returning context.Canceled of its own accord — no cancellation
// pending — is a genuine job failure, not a casualty.
func TestOwnCanceledErrorIsFailure(t *testing.T) {
	fn := func(_ context.Context, j Job[int]) (int, error) {
		if j.Options == 1 {
			return 0, context.Canceled // a bug in the job, not our cancel
		}
		return j.Options, nil
	}
	_, err := Run(context.Background(), Config{Workers: 2}, jobList(3), fn)
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("self-inflicted Canceled not attributed: %v", err)
	}
}

// TestOnProgressPanicKeepsDraining is the regression test for the poisoned
// progress lock: a panicking callback must not hang the pool — every job
// still runs, results are intact, and the panic surfaces in the error.
func TestOnProgressPanicKeepsDraining(t *testing.T) {
	var ran int64
	cfg := Config{
		Workers:    2,
		OnProgress: func(Progress) { panic("callback boom") },
	}
	got, err := Run(context.Background(), cfg, jobList(8),
		func(_ context.Context, j Job[int]) (int, error) {
			atomic.AddInt64(&ran, 1)
			return j.Options * 10, nil
		})
	if n := atomic.LoadInt64(&ran); n != 8 {
		t.Fatalf("pool stopped draining: %d of 8 jobs ran", n)
	}
	for i, r := range got {
		if r != i*10 {
			t.Fatalf("results[%d] = %d, want %d", i, r, i*10)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "OnProgress") {
		t.Fatalf("callback panic not surfaced: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "callback boom" {
		t.Fatalf("PanicError missing from chain: %v", err)
	}
}

// TestHangFaultUnstuckByCancel drives the graceful-interrupt shape: one
// cell hangs forever, the caller cancels once everything else completed,
// and the sweep returns the cancellation with every finished result
// intact and the hung slot marked incomplete.
func TestHangFaultUnstuckByCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := NewInjector(FaultSpec{Key: "job-2", Kind: FaultHang})
	cfg := Config{
		Workers: 4,
		OnProgress: func(p Progress) {
			if p.Done == 7 { // all but the hung cell
				cancel()
			}
		},
	}
	out := Execute(ctx, cfg, jobList(8), InjectFaults(inj, okFn))
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.Err)
	}
	for i := 0; i < 8; i++ {
		if i == 2 {
			if out.Completed[i] {
				t.Error("hung job marked completed")
			}
			if out.JobErrors[i] != nil {
				t.Errorf("hung job blamed for the cancellation: %v", out.JobErrors[i])
			}
			continue
		}
		if !out.Completed[i] || out.Results[i] != i*10 {
			t.Errorf("slot %d lost its result: completed=%v r=%d", i, out.Completed[i], out.Results[i])
		}
	}
}

// TestCollectAllDedupMask verifies the completion mask when jobs share a
// Key: under CollectAll every declared job runs on its own, so both copies
// of a failing key are incomplete with a *JobError naming their own index,
// and both copies of a healthy key hold results.
func TestCollectAllDedupMask(t *testing.T) {
	jobs := []Job[int]{
		{Key: "ok", Options: 1},
		{Key: "bad", Options: 2},
		{Key: "ok", Options: 3},
		{Key: "bad", Options: 4},
	}
	inj := NewInjector(FaultSpec{Key: "bad", Kind: FaultError})
	out := Execute(context.Background(), Config{Workers: 2, ErrorPolicy: CollectAll},
		jobs, InjectFaults(inj, okFn))
	if out.Err == nil {
		t.Fatal("failure not reported")
	}
	wantCompleted := []bool{true, false, true, false}
	for i, want := range wantCompleted {
		if out.Completed[i] != want {
			t.Errorf("Completed[%d] = %v, want %v", i, out.Completed[i], want)
		}
	}
	if out.Results[0] != 10 || out.Results[2] != 30 {
		t.Errorf("healthy duplicates lost results: %v", out.Results)
	}
	for _, i := range []int{1, 3} {
		var je *JobError
		if !errors.As(out.JobErrors[i], &je) || je.Index != i {
			t.Errorf("JobErrors[%d] = %v, want a *JobError with Index %d", i, out.JobErrors[i], i)
		}
	}
	if got := inj.Executions("bad"); got != 2 {
		t.Errorf("failing key ran %d times, want 2", got)
	}
}
