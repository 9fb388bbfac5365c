package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func jobList(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("job-%d", i), Options: i}
	}
	return jobs
}

// TestOrdering verifies results come back in declaration order even when
// completion order is scrambled.
func TestOrdering(t *testing.T) {
	jobs := jobList(32)
	for _, workers := range []int{1, 4, 32} {
		got, err := Run(context.Background(), Config{Workers: workers}, jobs,
			func(_ context.Context, j Job[int]) (int, error) {
				// Early jobs sleep longest so completion order inverts
				// declaration order under parallelism.
				time.Sleep(time.Duration(len(jobs)-j.Options) * 100 * time.Microsecond)
				return j.Options * 10, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r != i*10 {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, r, i*10)
			}
		}
	}
}

// TestWorkerCapOne proves Workers=1 never overlaps two jobs.
func TestWorkerCapOne(t *testing.T) {
	var inflight, maxInflight int64
	_, err := Run(context.Background(), Config{Workers: 1}, jobList(16),
		func(_ context.Context, j Job[int]) (int, error) {
			cur := atomic.AddInt64(&inflight, 1)
			for {
				old := atomic.LoadInt64(&maxInflight)
				if cur <= old || atomic.CompareAndSwapInt64(&maxInflight, old, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt64(&inflight, -1)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&maxInflight); got != 1 {
		t.Fatalf("max in-flight jobs = %d with Workers=1", got)
	}
}

// TestWorkerCapN proves N workers genuinely run concurrently: each job
// blocks until all N are in flight, so anything less than N workers would
// deadlock (bounded here by the test timeout).
func TestWorkerCapN(t *testing.T) {
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	_, err := Run(context.Background(), Config{Workers: n}, jobList(n),
		func(_ context.Context, j Job[int]) (int, error) {
			started.Done()
			started.Wait() // requires all n jobs in flight at once
			return j.Options, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestErrorPropagation checks the FailFast contract: the first observed
// failure wins (which of several concurrent failures that is depends on
// scheduling), and it always comes back wrapped in a *JobError naming its
// own index and key.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	jobs := jobList(8)
	_, err := Run(context.Background(), Config{Workers: 8}, jobs,
		func(_ context.Context, j Job[int]) (int, error) {
			if j.Options == 3 || j.Options == 5 {
				return 0, fmt.Errorf("cell %d: %w", j.Options, boom)
			}
			time.Sleep(5 * time.Millisecond)
			return 0, nil
		})
	if err == nil {
		t.Fatal("no error propagated")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain broken: %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error is not a *JobError: %v", err)
	}
	if je.Index != 3 && je.Index != 5 {
		t.Fatalf("winner index = %d, want a failing job (3 or 5)", je.Index)
	}
	if want := fmt.Sprintf("job-%d", je.Index); je.Key != want {
		t.Fatalf("winner key = %q does not match its index %d", je.Key, je.Index)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("sweep: job %d (job-%d):", je.Index, je.Index)) {
		t.Fatalf("error does not name the failed job: %v", err)
	}
}

// TestErrorStopsUnstartedJobs verifies first-error propagation halts the
// sweep: with one worker, jobs after the failure never run.
func TestErrorStopsUnstartedJobs(t *testing.T) {
	var ran int64
	_, err := Run(context.Background(), Config{Workers: 1}, jobList(10),
		func(_ context.Context, j Job[int]) (int, error) {
			atomic.AddInt64(&ran, 1)
			if j.Options == 2 {
				return 0, errors.New("stop here")
			}
			return 0, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := atomic.LoadInt64(&ran); got != 3 {
		t.Fatalf("ran %d jobs after failure at index 2, want 3", got)
	}
}

// TestCancellationMidSweep cancels the context from inside a job and
// verifies the sweep stops early and reports the cancellation.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	results, err := Run(ctx, Config{Workers: 1}, jobList(100),
		func(_ context.Context, j Job[int]) (int, error) {
			atomic.AddInt64(&ran, 1)
			if j.Options == 4 {
				cancel()
			}
			return j.Options + 1, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got != 5 {
		t.Fatalf("ran %d jobs, want 5 (cancel after index 4)", got)
	}
	// Completed jobs keep their results; unstarted ones stay zero.
	for i := 0; i <= 4; i++ {
		if results[i] != i+1 {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i+1)
		}
	}
	for i := 5; i < 100; i++ {
		if results[i] != 0 {
			t.Errorf("results[%d] = %d for unstarted job, want 0", i, results[i])
		}
	}
}

// TestCanceledBeforeStart runs nothing when the context is already dead.
func TestCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	_, err := Run(ctx, Config{}, jobList(8),
		func(context.Context, Job[int]) (int, error) {
			atomic.AddInt64(&ran, 1)
			return 0, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt64(&ran); got != 0 {
		t.Fatalf("ran %d jobs under a dead context", got)
	}
}

// TestProgress verifies Done counts monotonically to Total, every key is
// reported exactly once, and job wall times are populated.
func TestProgress(t *testing.T) {
	jobs := jobList(12)
	seen := map[string]bool{}
	last := 0
	_, err := Run(context.Background(), Config{
		Workers: 4,
		OnProgress: func(p Progress) {
			// Callbacks are serialized, so no locking here — -race
			// verifies that claim.
			if p.Total != len(jobs) {
				t.Errorf("Total = %d, want %d", p.Total, len(jobs))
			}
			if p.Done != last+1 {
				t.Errorf("Done = %d after %d", p.Done, last)
			}
			last = p.Done
			if seen[p.Key] {
				t.Errorf("key %q reported twice", p.Key)
			}
			seen[p.Key] = true
			if p.Elapsed < 0 {
				t.Errorf("negative elapsed %v", p.Elapsed)
			}
		},
	}, jobs, func(_ context.Context, j Job[int]) (int, error) {
		time.Sleep(100 * time.Microsecond)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(jobs) || len(seen) != len(jobs) {
		t.Fatalf("progress incomplete: last=%d keys=%d", last, len(seen))
	}
}

// TestEmptyAndNil covers the degenerate inputs.
func TestEmptyAndNil(t *testing.T) {
	got, err := Run(context.Background(), Config{}, nil,
		func(context.Context, Job[int]) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v, %v", got, err)
	}
	if _, err := Run[int, int](context.Background(), Config{}, jobList(1), nil); err == nil {
		t.Fatal("nil run function accepted")
	}
}

// TestDefaultWorkers just exercises the GOMAXPROCS default path.
func TestDefaultWorkers(t *testing.T) {
	got, err := Run(context.Background(), Config{}, jobList(5),
		func(_ context.Context, j Job[int]) (int, error) { return j.Options, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("results[%d] = %d", i, r)
		}
	}
}

// TestDedupProgressTotals verifies jobs sharing a Key are not folded in
// progress: Total is len(jobs), and every declared job reports once.
func TestDedupProgressTotals(t *testing.T) {
	jobs := []Job[int]{{Key: "x"}, {Key: "x"}, {Key: "x"}, {Key: "y"}}
	var calls int
	_, err := Run(context.Background(), Config{
		Workers: 2,
		OnProgress: func(p Progress) {
			calls++
			if p.Total != len(jobs) {
				t.Errorf("Total = %d, want %d", p.Total, len(jobs))
			}
		},
	}, jobs, func(_ context.Context, j Job[int]) (int, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Fatalf("OnProgress called %d times, want %d", calls, len(jobs))
	}
}

// TestDedupErrorAttribution verifies that under FailFast the first of two
// failing jobs sharing a Key is the one blamed, by its own index, and the
// later duplicate never starts.
func TestDedupErrorAttribution(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job[int]{{Key: "ok"}, {Key: "bad"}, {Key: "bad"}}
	var runs int64
	results, err := Run(context.Background(), Config{Workers: 1}, jobs,
		func(_ context.Context, j Job[int]) (int, error) {
			atomic.AddInt64(&runs, 1)
			if j.Key == "bad" {
				return 0, boom
			}
			return 7, nil
		})
	var je *JobError
	if !errors.As(err, &je) || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if je.Index != 1 {
		t.Fatalf("error blames job %d, want 1: %v", je.Index, err)
	}
	if runs != 2 {
		t.Fatalf("%d executions, want 2 (the duplicate must not start)", runs)
	}
	if results[0] != 7 || results[1] != 0 || results[2] != 0 {
		t.Fatalf("results = %v", results)
	}
}
