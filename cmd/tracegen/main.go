// Command tracegen records, replays, and analyzes simulation traces — the
// reproduction of the paper's two-step trace methodology (§VI).
//
// Usage:
//
//	tracegen -record ops.trace -workload dedup -accesses 100000
//	    Record the deterministic op stream of a workload.
//
//	tracegen -replay ops.trace -technique agile -pagesize 4K
//	    Replay a recorded stream on a machine configuration and report.
//
//	tracegen -misslog miss.trace -workload dedup -technique agile
//	    Run with TLB-miss classification recording (BadgerTrap analog) and
//	    save the per-miss log.
//
//	tracegen -analyze miss.trace
//	    Summarize a saved miss log into the paper's Table VI row.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

func main() {
	var (
		record    = flag.String("record", "", "record the workload's op stream to this file")
		replay    = flag.String("replay", "", "replay an op stream from this file")
		misslog   = flag.String("misslog", "", "run the workload and save the TLB-miss log to this file")
		analyze   = flag.String("analyze", "", "summarize a saved TLB-miss log")
		name      = flag.String("workload", "dedup", "workload name")
		technique = flag.String("technique", "agile", "native | nested | shadow | agile")
		pageSize  = flag.String("pagesize", "4K", "4K | 2M | 1G")
		accesses  = flag.Int("accesses", 120_000, "steady-phase accesses")
		seed      = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	switch {
	case *record != "":
		fatalIf(doRecord(*record, *name, *pageSize, *accesses, *seed))
	case *replay != "":
		fatalIf(doReplay(*replay, *technique, *pageSize))
	case *misslog != "":
		fatalIf(doMissLog(*misslog, *name, *technique, *pageSize, *accesses, *seed))
	case *analyze != "":
		fatalIf(doAnalyze(*analyze))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseMode(s string) (walker.Mode, error) {
	switch strings.ToLower(s) {
	case "native":
		return walker.ModeNative, nil
	case "nested":
		return walker.ModeNested, nil
	case "shadow":
		return walker.ModeShadow, nil
	case "agile":
		return walker.ModeAgile, nil
	}
	return 0, fmt.Errorf("unknown technique %q", s)
}

func parseSize(s string) (pagetable.Size, error) {
	switch strings.ToUpper(s) {
	case "4K":
		return pagetable.Size4K, nil
	case "2M":
		return pagetable.Size2M, nil
	}
	return 0, fmt.Errorf("unknown page size %q", s)
}

func doRecord(path, name, ps string, accesses int, seed int64) error {
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	size, err := parseSize(ps)
	if err != nil {
		return err
	}
	ops := workload.Collect(workload.New(prof, size, accesses, seed), 0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteOps(f, ops); err != nil {
		return err
	}
	fmt.Printf("recorded %d ops of %s to %s\n", len(ops), name, path)
	return nil
}

func doReplay(path, technique, ps string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ops, err := trace.ReadOps(f)
	if err != nil {
		return err
	}
	mode, err := parseMode(technique)
	if err != nil {
		return err
	}
	size, err := parseSize(ps)
	if err != nil {
		return err
	}
	m, err := cpu.New(cpu.DefaultConfig(mode, size))
	if err != nil {
		return err
	}
	if err := m.Run(workload.NewFromOps(path, ops)); err != nil {
		return err
	}
	rep := m.Report(path)
	fmt.Printf("replayed %d ops: %s\n", len(ops), rep.String())
	return nil
}

func doMissLog(path, name, technique, ps string, accesses int, seed int64) error {
	mode, err := parseMode(technique)
	if err != nil {
		return err
	}
	size, err := parseSize(ps)
	if err != nil {
		return err
	}
	var log trace.MissLog
	o := experiments.DefaultOptions(mode, size)
	o.Accesses = accesses
	o.Seed = seed
	o.OnWalk = log.Record
	if _, err := experiments.RunProfile(name, o); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := log.Save(f); err != nil {
		return err
	}
	fmt.Printf("saved %d miss records to %s\n", len(log.Records), path)
	return printSummary(log.Summary())
}

func doAnalyze(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := trace.LoadMissLog(f)
	if err != nil {
		return err
	}
	return printSummary(log.Summary())
}

func printSummary(s trace.MissSummary) error {
	fmt.Printf("misses: %d\n", s.Total)
	labels := []string{"full shadow (4)", "switch L4 (8)", "switch L3 (12)", "switch L2 (16)", "switch L1 (20)", "full nested (24)"}
	for c, label := range labels {
		fmt.Printf("  %-18s %6.2f%%\n", label, 100*s.Fraction(c))
	}
	fmt.Printf("avg refs/miss: %.2f\n", s.AvgRefs())
	fmt.Printf("write misses: %.2f%%  (%d of %d)\n", 100*s.WriteFraction(), s.Writes, s.Total)
	fmt.Printf("retry records: %.2f%%  (%d write-protect re-walks)\n", 100*s.RetryFraction(), s.Retries)
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
