// Package stats provides the fixed-bucket histogram the simulator's reports
// build on, for per-event quantities such as memory references per walk.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Hist is a histogram over small non-negative integer values with an
// overflow bucket, sized for quantities like "memory references per walk"
// (0..24 and a tail).
type Hist struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      uint64
	max      int
}

// NewHist creates a histogram with exact buckets for values 0..limit-1;
// larger values land in the overflow bucket.
func NewHist(limit int) *Hist {
	if limit < 1 {
		limit = 1
	}
	return &Hist{buckets: make([]uint64, limit)}
}

// Add records one observation.
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
	if v < len(h.buckets) {
		h.buckets[v]++
		return
	}
	h.overflow++
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of the observations.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest observation.
func (h *Hist) Max() int { return h.max }

// Bucket returns the count for exact value v (0 for overflow range).
func (h *Hist) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow returns the count of observations at or above the bucket limit.
func (h *Hist) Overflow() uint64 { return h.overflow }

// Fraction returns the share of observations with exact value v.
func (h *Hist) Fraction(v int) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.Bucket(v)) / float64(h.count)
}

// Percentile returns the smallest value x such that at least p (0..1) of
// the observations are <= x. Overflow observations report the bucket limit.
func (h *Hist) Percentile(p float64) int {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for v, c := range h.buckets {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.buckets)
}

// Reset zeroes the histogram.
func (h *Hist) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.overflow, h.count, h.sum = 0, 0, 0
	h.max = 0
}

// String renders the non-empty buckets compactly.
func (h *Hist) String() string {
	var parts []string
	for v, c := range h.buckets {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%d:%d", v, c))
		}
	}
	if h.overflow > 0 {
		parts = append(parts, fmt.Sprintf(">=%d:%d", len(h.buckets), h.overflow))
	}
	return "Hist{" + strings.Join(parts, " ") + "}"
}
