package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistBasics(t *testing.T) {
	h := NewHist(25)
	for _, v := range []int{4, 4, 8, 24, 24, 24, 30} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Bucket(4) != 2 || h.Bucket(24) != 3 || h.Bucket(8) != 1 {
		t.Errorf("buckets: %s", h)
	}
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d", h.Overflow())
	}
	if h.Max() != 30 {
		t.Errorf("Max = %d", h.Max())
	}
	want := float64(4+4+8+24+24+24+30) / 7
	if math.Abs(h.Mean()-want) > 1e-9 {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
	if f := h.Fraction(4); math.Abs(f-2.0/7) > 1e-9 {
		t.Errorf("Fraction(4) = %v", f)
	}
	if h.String() == "Hist{}" {
		t.Error("empty String for populated hist")
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Overflow() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistNegativeAndZeroLimit(t *testing.T) {
	h := NewHist(0) // clamps to 1 bucket
	h.Add(-5)       // clamps to 0
	if h.Bucket(0) != 1 {
		t.Errorf("negative add: %s", h)
	}
}

func TestHistPercentile(t *testing.T) {
	h := NewHist(10)
	for i := 0; i < 90; i++ {
		h.Add(1)
	}
	for i := 0; i < 10; i++ {
		h.Add(9)
	}
	if p := h.Percentile(0.5); p != 1 {
		t.Errorf("p50 = %d", p)
	}
	if p := h.Percentile(0.95); p != 9 {
		t.Errorf("p95 = %d", p)
	}
	if p := h.Percentile(1.0); p != 9 {
		t.Errorf("p100 = %d", p)
	}
	if (&Hist{}).Percentile(0.5) != 0 {
		t.Error("empty percentile")
	}
	// Overflow observations report the limit.
	h2 := NewHist(4)
	h2.Add(100)
	if p := h2.Percentile(1.0); p != 4 {
		t.Errorf("overflow percentile = %d", p)
	}
}

// TestHistMeanProperty: histogram mean equals the true mean for any input
// within the bucket range.
func TestHistMeanProperty(t *testing.T) {
	err := quick.Check(func(vals []uint8) bool {
		h := NewHist(256)
		sum := 0
		for _, v := range vals {
			h.Add(int(v))
			sum += int(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		return math.Abs(h.Mean()-float64(sum)/float64(len(vals))) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestHistPercentileOverflowCrossing: once the cumulative in-range counts
// fall short of the target rank, Percentile must report the bucket limit —
// not the last in-range value — so overflow-heavy distributions (e.g.
// pathological refs-per-walk tails) are not silently understated.
func TestHistPercentileOverflowCrossing(t *testing.T) {
	h := NewHist(4)
	for i := 0; i < 60; i++ {
		h.Add(2)
	}
	for i := 0; i < 40; i++ {
		h.Add(7) // overflow: >= limit 4
	}
	if p := h.Percentile(0.6); p != 2 {
		t.Errorf("p60 = %d, want in-range 2", p)
	}
	// p61 crosses into the overflow mass.
	if p := h.Percentile(0.61); p != 4 {
		t.Errorf("p61 = %d, want bucket limit 4", p)
	}
	// Out-of-range p clamps to [0, 1].
	if p := h.Percentile(-0.5); p != 2 {
		t.Errorf("clamped p<0 = %d", p)
	}
	if p := h.Percentile(2.0); p != 4 {
		t.Errorf("clamped p>1 = %d", p)
	}
	// All-overflow histogram: every percentile is the limit.
	all := NewHist(3)
	all.Add(50)
	if p := all.Percentile(0.01); p != 3 {
		t.Errorf("all-overflow p1 = %d", p)
	}
}
