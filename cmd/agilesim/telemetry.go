package main

import (
	"fmt"
	"io"

	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
)

// telemetryRun bundles the flag values a -metrics / -walk-trace run uses.
type telemetryRun struct {
	workload  string
	technique string
	pageSize  string
	accesses  int
	warmup    int
	seed      int64
	noCaches  bool
	hwAD      bool
	ctxCache  int
	shsp      bool
	metrics   string
	epochLen  int
	walkTrace string
}

// runWithTelemetry runs one workload with the epoch recorder (and,
// optionally, the walk-event ring) attached, prints the adaptation table,
// and writes the requested export files.
func runWithTelemetry(stdout io.Writer, r telemetryRun) error {
	mode, err := walker.ParseMode(r.technique)
	if err != nil {
		return err
	}
	size, err := pagetable.ParseSize(r.pageSize)
	if err != nil {
		return err
	}
	o := experiments.DefaultOptions(mode, size)
	o.Accesses = r.accesses
	o.Warmup = r.warmup
	o.Seed = r.seed
	o.DisablePWC = r.noCaches
	o.DisableNTLB = r.noCaches
	o.HardwareAD = r.hwAD
	o.CtxSwitchCache = r.ctxCache
	o.UseSHSP = r.shsp

	rec := telemetry.NewRecorder(r.epochLen)
	o.Metrics = rec
	var ring *telemetry.EventRing
	if r.walkTrace != "" {
		ring = telemetry.NewEventRing(0)
		o.OnWalk = ring.Record
	}

	rep, err := experiments.RunProfile(r.workload, o)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, rep.String())
	s := rec.Series()
	fmt.Fprint(stdout, s.Table())

	if r.metrics != "" {
		if err := s.WriteFile(r.metrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d epochs to %s\n", len(s.Epochs), r.metrics)
	}
	if r.walkTrace != "" {
		if err := ring.WriteChromeTraceFile(r.walkTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d walk events to %s (chrome://tracing)\n", len(ring.Events()), r.walkTrace)
	}
	return nil
}
