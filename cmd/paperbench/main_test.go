package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"agilepaging/internal/sweep"
)

func TestParseArgsDefaults(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs(nil, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.env.Parallel != 0 {
		t.Errorf("default parallel = %d, want 0 (one worker per CPU)", o.env.Parallel)
	}
	if o.env.Progress {
		t.Error("progress defaults to true")
	}
	if o.env.Accesses != 120_000 || o.env.Seed != 42 {
		t.Errorf("defaults: accesses=%d seed=%d", o.env.Accesses, o.env.Seed)
	}
	if o.workloads != nil {
		t.Errorf("default workloads = %v, want nil", o.workloads)
	}
}

func TestParseArgsParallelAndProgress(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-figure", "5", "-parallel", "8", "-progress",
		"-workloads", "dedup,mcf", "-accesses", "5000", "-seed", "7"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.env.Parallel != 8 {
		t.Errorf("parallel = %d, want 8", o.env.Parallel)
	}
	if !o.env.Progress {
		t.Error("progress not set")
	}
	if o.figure != 5 || o.env.Accesses != 5000 || o.env.Seed != 7 {
		t.Errorf("parsed %+v, env %+v", o, o.env)
	}
	if want := []string{"dedup", "mcf"}; !reflect.DeepEqual(o.workloads, want) {
		t.Errorf("workloads = %v, want %v", o.workloads, want)
	}
}

func TestParseArgsRejectsPositionalArgs(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := parseArgs([]string{"-all", "stray"}, &errBuf); err == nil {
		t.Fatal("positional argument accepted")
	}
}

func TestParseArgsRejectsUnknownFlag(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := parseArgs([]string{"-bogus"}, &errBuf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestSweepConfigProgressWiring(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-all", "-parallel", "3"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var quiet bytes.Buffer
	cfg := o.env.SweepConfig(&quiet)
	if cfg.Workers != 3 {
		t.Errorf("Workers = %d, want 3", cfg.Workers)
	}
	// OnProgress is always installed (it feeds the interrupt report's
	// completion counter) but stays silent without -progress.
	if cfg.OnProgress == nil {
		t.Fatal("OnProgress nil; the interrupt report needs its counter")
	}
	cfg.OnProgress(sweep.Progress{Done: 1, Total: 4, Key: "x"})
	if quiet.Len() != 0 {
		t.Errorf("progress line printed without -progress: %q", quiet.String())
	}
	if got := o.env.Completed(); got != 1 {
		t.Errorf("Completed() = %d, want 1", got)
	}

	o2, err := parseArgs([]string{"-all", "-progress"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg2 := o2.env.SweepConfig(&out)
	if cfg2.OnProgress == nil {
		t.Fatal("OnProgress nil with -progress")
	}
	cfg2.OnProgress(sweep.Progress{Done: 3, Total: 64, Key: "dedup/4K/agile", Elapsed: 1500 * time.Millisecond})
	if got := out.String(); !strings.Contains(got, "[3/64]") || !strings.Contains(got, "dedup/4K/agile") {
		t.Errorf("progress line = %q", got)
	}
}

func TestParseArgsFailAndRetries(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-all"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.env.Fail != "fast" {
		t.Errorf("default fail = %q, want fast", o.env.Fail)
	}
	cfg := o.env.SweepConfig(&errBuf)
	if cfg.ErrorPolicy != sweep.FailFast {
		t.Errorf("default sweep config: policy=%v", cfg.ErrorPolicy)
	}

	o, err = parseArgs([]string{"-all", "-fail", "collect"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	cfg = o.env.SweepConfig(&errBuf)
	if cfg.ErrorPolicy != sweep.CollectAll {
		t.Errorf("-fail collect: policy = %v", cfg.ErrorPolicy)
	}

	// A bad policy is a usage error, reported before anything runs.
	var out bytes.Buffer
	errBuf.Reset()
	if code := run(context.Background(), []string{"-all", "-fail", "eventually"}, &out, &errBuf); code != 2 {
		t.Errorf("-fail eventually: exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errBuf.String(), `-fail "eventually"`) {
		t.Errorf("-fail eventually: stdout %q, stderr %q", out.String(), errBuf.String())
	}
}

func TestParseArgsReportCache(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs(nil, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.env.ReportCacheDir != "" {
		t.Errorf("default report-cache-dir = %q, want disabled", o.env.ReportCacheDir)
	}
	o, err = parseArgs([]string{"-all", "-report-cache-dir", "/tmp/reports"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.env.ReportCacheDir != "/tmp/reports" {
		t.Errorf("report-cache-dir = %q", o.env.ReportCacheDir)
	}
}

// checkProfile fails t unless path holds a complete gzip stream, the
// container pprof writes its profiles in.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
}

// TestRunWritesProfilesOnErrorExit pins that the profiles are finished on
// every exit path, not only on success.
func TestRunWritesProfilesOnErrorExit(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"nothing selected", nil, 2},
		{"failed experiment", []string{"-validate", "nosuch", "-accesses", "100"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpuPath, memPath := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
			args := append([]string{"-cpuprofile", cpuPath, "-memprofile", memPath}, tc.args...)
			var out, errBuf bytes.Buffer
			if code := run(context.Background(), args, &out, &errBuf); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr %q", code, tc.code, errBuf.String())
			}
			checkProfile(t, cpuPath)
			checkProfile(t, memPath)
		})
	}
}

// TestRunInterruptedReportsProgress pins the interrupt path: a canceled
// run exits 130 and reports what completed plus the cache statistics.
func TestRunInterruptedReportsProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	if code := run(ctx, []string{"-figure", "5", "-workloads", "dedup", "-accesses", "1000"}, &out, &errBuf); code != 130 {
		t.Fatalf("exit %d, want 130; stderr %q", code, errBuf.String())
	}
	got := errBuf.String()
	for _, want := range []string{"interrupted after", "machine pool:", "stream cache:", "report cache:"} {
		if !strings.Contains(got, want) {
			t.Errorf("stderr lacks %q:\n%s", want, got)
		}
	}
}
