package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepaging"
)

// The -technique and -pagesize flags route through the facade's shared
// parsers; these tests pin the alias set the CLI documents.

func TestParseTechnique(t *testing.T) {
	for in, want := range map[string]string{
		"native": "native", "B": "native", "nested": "nested", "n": "nested",
		"Shadow": "shadow", "agile": "agile", "A": "agile",
	} {
		got, err := agilepaging.ParseTechnique(in)
		if err != nil {
			t.Errorf("ParseTechnique(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParseTechnique(%q) = %v, want %s", in, got, want)
		}
	}
	if _, err := agilepaging.ParseTechnique("zen"); err == nil {
		t.Error("bad technique accepted")
	}
}

func TestParsePageSize(t *testing.T) {
	for in, want := range map[string]string{
		"4K": "4K", "4kb": "4K", "2M": "2M", "2mb": "2M", "1g": "1G",
	} {
		got, err := agilepaging.ParsePageSize(in)
		if err != nil {
			t.Errorf("ParsePageSize(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParsePageSize(%q) = %v", in, got)
		}
	}
	if _, err := agilepaging.ParsePageSize("8M"); err == nil {
		t.Error("bad page size accepted")
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

// cacheStatsLines are the prefixes of the cache-statistics epilogue.
var cacheStatsLines = []string{"machine pool:", "stream cache:", "report cache:"}

// TestRunWritesProfilesOnErrorExit pins that the profiles are finished, and
// the -progress epilogue printed, on error exits too.
func TestRunWritesProfilesOnErrorExit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		progress bool
	}{
		{"bad technique", []string{"-technique", "zen"}, false},
		{"unknown workload", []string{"-workload", "nosuch", "-progress"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpuPath, memPath := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
			args := append([]string{"-cpuprofile", cpuPath, "-memprofile", memPath}, tc.args...)
			var out, errBuf bytes.Buffer
			if code := run(context.Background(), args, &out, &errBuf); code != 1 {
				t.Fatalf("exit %d, want 1; stderr %q", code, errBuf.String())
			}
			checkProfile(t, cpuPath)
			checkProfile(t, memPath)
			for _, want := range cacheStatsLines {
				if got := strings.Contains(errBuf.String(), want); got != tc.progress {
					t.Errorf("stderr has %q = %v:\n%s", want, got, errBuf.String())
				}
			}
		})
	}
}

// TestCompareInterrupted pins the -compare interrupt path: a canceled run
// exits 130 and reports what completed plus the cache statistics.
func TestCompareInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	if code := run(ctx, []string{"-workload", "mcf", "-compare", "-accesses", "1000"}, &out, &errBuf); code != 130 {
		t.Fatalf("exit %d, want 130; stderr %q", code, errBuf.String())
	}
	got := errBuf.String()
	for _, want := range append([]string{"interrupted after"}, cacheStatsLines...) {
		if !strings.Contains(got, want) {
			t.Errorf("stderr lacks %q:\n%s", want, got)
		}
	}
}

// TestRunTelemetryExports drives -metrics and -walk-trace end to end.
func TestRunTelemetryExports(t *testing.T) {
	dir := t.TempDir()
	series, trace := filepath.Join(dir, "epochs.csv"), filepath.Join(dir, "walks.json")
	var out, errBuf bytes.Buffer
	args := []string{"-workload", "mcf", "-accesses", "2000", "-metrics-epoch", "500", "-metrics", series, "-walk-trace", trace}
	if code := run(context.Background(), args, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d; stderr %q", code, errBuf.String())
	}
	csv, err := os.ReadFile(series)
	if err != nil || !strings.HasPrefix(string(csv), "epoch,") {
		t.Errorf("series file: %v, %.40q", err, csv)
	}
	walks, err := os.ReadFile(trace)
	if err != nil || !strings.HasPrefix(string(walks), "[") {
		t.Errorf("walk trace file: %v, %.40q", err, walks)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("stdout lacks the export lines:\n%s", out.String())
	}
}
