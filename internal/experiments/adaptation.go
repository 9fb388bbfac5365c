package experiments

import (
	"fmt"

	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
)

// AdaptationCurve resolves Table I's agile update-cost cell in time: it
// runs the churn microbenchmark (a TLB-hostile static region plus a small,
// repeatedly remapped dynamic region) under agile paging with an epoch
// recorder attached and returns the epoch series. Early epochs pay
// VMM-mediated page-table updates (the churned subtree is still shadowed);
// once the write-threshold policy flips it to nested mode, updates go
// direct and the per-epoch update cost falls toward 0 — the paper's
// "converges to the best of both" claim, observable per epoch.
//
// epochLen is the sampling interval in accesses (non-positive selects
// 2000); epochs the number of full epochs to run (non-positive selects
// 12). ring, when non-nil, additionally records per-walk events. The run
// starts in agile (not fully nested) mode so the series shows the
// Shadow⇒Nested adaptation itself, not the short-lived-process policy.
func AdaptationCurve(epochLen, epochs int, ring *telemetry.EventRing) (*telemetry.Series, error) {
	if epochLen <= 0 {
		epochLen = 2_000
	}
	if epochs <= 0 {
		epochs = 12
	}
	rec := telemetry.NewRecorder(epochLen)
	o := DefaultOptions(walker.ModeAgile, 0)
	o.AgileStartNested = false
	o.Metrics = rec
	if ring != nil {
		o.OnWalk = ring.Record
	}
	// Churn every quarter epoch so every epoch contains page-table updates
	// to price; 16 churned pages matches the Table I microbenchmark.
	const churnPages = 16
	churnEvery := epochLen / 4
	if churnEvery < 1 {
		churnEvery = 1
	}
	// With the paper's write threshold (2) the churned subtree flips to
	// nested within the first churn round — correct, but invisible at epoch
	// granularity. Stretch the threshold so the flip lands ~40% into the
	// run: each churn round intercepts about 2 writes per churned page
	// (demand-fault PTE install + unmap clear) on the same leaf table.
	rounds := epochLen * epochs / churnEvery
	o.AgileWriteThreshold = rounds * churnPages * 2 * 2 / 5
	if _, _, err := RunOps("adaptation", mixedOps(1024, epochLen*epochs, churnEvery, churnPages), o); err != nil {
		return nil, fmt.Errorf("experiments: adaptation: %w", err)
	}
	return rec.Series(), nil
}

// FormatAdaptation renders the adaptation curve with a verdict line: the
// measured update cost of the first and last epochs (Table I resolved in
// time).
func FormatAdaptation(s *telemetry.Series) string {
	out := s.Table()
	if len(s.Epochs) >= 2 {
		first, last := s.Epochs[0], s.Epochs[len(s.Epochs)-1]
		out += fmt.Sprintf("update cost: %.0f cycles/update (epoch 0) -> %.0f cycles/update (epoch %d)\n",
			first.UpdateCost(), last.UpdateCost(), last.Index)
	}
	return out
}
