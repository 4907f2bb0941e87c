// Package stats provides the accuracy metrics of the paper's
// evaluation (Figure 5a): mean absolute percentage error, Pearson's
// correlation coefficient, and Kendall's rank correlation τ, plus
// small helpers shared by the evaluation harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MAD returns the median absolute deviation of xs from its median.
// Unlike the standard deviation it is insensitive to wild outliers,
// which is what makes it the right scale estimate for rejecting them.
// Empty input yields 0, never NaN.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return Median(devs)
}

// madToSigma converts a MAD into a normal-consistent standard
// deviation estimate (MAD = 0.6745·σ for a Gaussian).
const madToSigma = 1 / 0.6745

// RobustSpread returns the interquartile range of xs relative to its
// median, IQR/|median|. Unlike the raw (max−min)/|median| it does not
// grow with the sample count under constant noise, which makes it the right
// convergence criterion for adaptive repetition: more samples tighten
// it only when the underlying distribution is actually concentrated.
// Fewer than two samples, or a zero median, yield 0 — never NaN.
func RobustSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Median(xs)
	if m == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return (percentile(c, 0.75) - percentile(c, 0.25)) / math.Abs(m)
}

// percentile linearly interpolates the p-quantile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	idx := p * float64(len(sorted)-1)
	lo := int(idx)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// RejectOutliers computes a keep-mask over xs: sample i is rejected
// when its distance from the median exceeds
//
//	max(kMAD · MAD/0.6745, minRel · |median|).
//
// The MAD term is the classic robust z-score test; the relative floor
// keeps it from firing on structure rather than corruption — genuine
// bimodal measurements (modes within minRel of the median, §4.1.2)
// survive at any mode split, while far-out corruption (a 10×
// latency spike) is always rejected. Constant input rejects nothing;
// empty input returns a nil mask. rejected counts the false entries.
func RejectOutliers(xs []float64, kMAD, minRel float64) (keep []bool, rejected int) {
	if len(xs) == 0 {
		return nil, 0
	}
	m := Median(xs)
	thresh := kMAD * MAD(xs) * madToSigma
	if rel := minRel * math.Abs(m); rel > thresh {
		thresh = rel
	}
	keep = make([]bool, len(xs))
	for i, x := range xs {
		keep[i] = math.Abs(x-m) <= thresh
		if !keep[i] {
			rejected++
		}
	}
	return keep, rejected
}

// MAPE returns the mean absolute percentage error of predictions
// against measurements, as a fraction (0.066 = 6.6%). Measurements of
// zero are skipped.
func MAPE(pred, meas []float64) (float64, error) {
	if len(pred) != len(meas) {
		return 0, fmt.Errorf("stats: %d predictions vs %d measurements", len(pred), len(meas))
	}
	sum, n := 0.0, 0
	for i := range pred {
		if meas[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-meas[i]) / math.Abs(meas[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: no usable samples")
	}
	return sum / float64(n), nil
}

// Pearson returns the Pearson correlation coefficient of x and y.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 samples")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// KendallTau returns Kendall's τ-b rank correlation of x and y,
// computed in O(n²) with tie correction (τ-b).
func KendallTau(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("stats: need at least 2 samples")
	}
	var concordant, discordant, tiesX, tiesY int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := sign(x[i] - x[j])
			dy := sign(y[i] - y[j])
			switch {
			case dx == 0 && dy == 0:
				tiesX++
				tiesY++
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx == dy:
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := float64(n*(n-1)) / 2
	denom := math.Sqrt((n0 - float64(tiesX)) * (n0 - float64(tiesY)))
	if denom == 0 {
		return 0, fmt.Errorf("stats: all pairs tied")
	}
	return float64(concordant-discordant) / denom, nil
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// Histogram2D buckets (x, y) pairs onto a grid; used for the IPC
// heatmaps of Figure 5(b–d).
type Histogram2D struct {
	// XMax/YMax bound the grid; values beyond are clamped into the
	// last bucket.
	XMax, YMax float64
	// Bins is the number of buckets per axis.
	Bins int
	// Counts[yi][xi] is the number of samples in the bucket.
	Counts [][]int
}

// NewHistogram2D builds an empty grid.
func NewHistogram2D(xmax, ymax float64, bins int) *Histogram2D {
	h := &Histogram2D{XMax: xmax, YMax: ymax, Bins: bins, Counts: make([][]int, bins)}
	for i := range h.Counts {
		h.Counts[i] = make([]int, bins)
	}
	return h
}

// Add records one (x, y) sample.
func (h *Histogram2D) Add(x, y float64) {
	xi := int(x / h.XMax * float64(h.Bins))
	yi := int(y / h.YMax * float64(h.Bins))
	if xi >= h.Bins {
		xi = h.Bins - 1
	}
	if yi >= h.Bins {
		yi = h.Bins - 1
	}
	if xi < 0 {
		xi = 0
	}
	if yi < 0 {
		yi = 0
	}
	h.Counts[yi][xi]++
}

// Total returns the number of recorded samples.
func (h *Histogram2D) Total() int {
	n := 0
	for _, row := range h.Counts {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// Render draws the grid as ASCII art (density ramp " .:-=+*#%@"),
// y increasing upward — a terminal rendition of the paper's heatmaps.
func (h *Histogram2D) Render() string {
	maxC := 0
	for _, row := range h.Counts {
		for _, c := range row {
			if c > maxC {
				maxC = c
			}
		}
	}
	ramp := []byte(" .:-=+*#%@")
	out := ""
	for yi := h.Bins - 1; yi >= 0; yi-- {
		line := make([]byte, h.Bins)
		for xi := 0; xi < h.Bins; xi++ {
			c := h.Counts[yi][xi]
			idx := 0
			if maxC > 0 && c > 0 {
				idx = 1 + c*(len(ramp)-2)/maxC
				if idx >= len(ramp) {
					idx = len(ramp) - 1
				}
			}
			line[xi] = ramp[idx]
		}
		out += string(line) + "\n"
	}
	return out
}
