package stats

import (
	"math"
	"testing"
)

// noNaN fails the test when v is NaN or Inf: the robust helpers must
// degrade to 0 on degenerate input, never leak non-finite values into
// the measurement path.
func noNaN(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s leaked a non-finite value: %v", name, v)
	}
}

func TestMAD(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 0},
		{"constant", []float64{2, 2, 2, 2}, 0},
		{"symmetric", []float64{1, 2, 3, 4, 5}, 1},
		{"heavy tail", []float64{1, 1, 1, 1, 1000}, 0},
		{"outlier resistant", []float64{10, 11, 12, 13, 14, 1e6}, 1.5},
	}
	for _, c := range cases {
		got := MAD(c.xs)
		noNaN(t, "MAD("+c.name+")", got)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MAD(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRobustSpread(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"constant", []float64{3, 3, 3, 3}, 0},
		{"zero median", []float64{-2, 0, 2}, 0},
		{"quartiles", []float64{1, 2, 3, 4, 5}, 2.0 / 3.0},
	}
	for _, c := range cases {
		got := RobustSpread(c.xs)
		noNaN(t, "RobustSpread("+c.name+")", got)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RobustSpread(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	// A single wild outlier barely moves the IQR — the property the
	// adaptive engine relies on.
	xs := []float64{1, 1.01, 0.99, 1.02, 0.98, 1, 1.01, 0.99, 1, 1.02, 10}
	if rs := RobustSpread(xs); rs > 0.1 {
		t.Errorf("RobustSpread with outlier = %v, want < 0.1", rs)
	}
}

func TestRejectOutliers(t *testing.T) {
	count := func(keep []bool) int {
		n := 0
		for _, k := range keep {
			if k {
				n++
			}
		}
		return n
	}

	if keep, rej := RejectOutliers(nil, 3.5, 3); keep != nil || rej != 0 {
		t.Fatalf("empty input: keep=%v rejected=%d", keep, rej)
	}
	if keep, rej := RejectOutliers([]float64{2, 2, 2, 2}, 3.5, 3); count(keep) != 4 || rej != 0 {
		t.Fatalf("constant input rejected %d samples", rej)
	}
	if keep, rej := RejectOutliers([]float64{1}, 3.5, 3); !keep[0] || rej != 0 {
		t.Fatal("single sample rejected")
	}

	// A 10× spike against a clean baseline must be rejected by the
	// relative floor even though the MAD of the clean samples is tiny.
	xs := []float64{1, 1.001, 0.999, 1.002, 0.998, 1, 1.001, 0.999, 1, 1.002, 10}
	keep, rej := RejectOutliers(xs, 3.5, 3)
	if rej != 1 || keep[len(xs)-1] {
		t.Fatalf("spike not rejected: keep=%v rejected=%d", keep, rej)
	}

	// Genuine bimodality — modes well inside the relative floor — must
	// survive regardless of the mode split (§4.1.2 instability is a
	// signal, not corruption).
	bimodal := []float64{0.25, 0.25, 0.25, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60}
	if _, rej := RejectOutliers(bimodal, 3.5, 3); rej != 0 {
		t.Fatalf("bimodal modes rejected: %d", rej)
	}
	lopsided := []float64{0.25, 0.25, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60}
	if _, rej := RejectOutliers(lopsided, 3.5, 3); rej != 0 {
		t.Fatalf("lopsided bimodal modes rejected: %d", rej)
	}

	// With a small relative floor the MAD term drives the decision:
	// heavy-tailed data keeps its bulk and sheds its tail.
	tail := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 14}
	keep, rej = RejectOutliers(tail, 3.5, 0.1)
	if rej != 1 || keep[len(tail)-1] {
		t.Fatalf("MAD term did not reject tail: keep=%v rejected=%d", keep, rej)
	}
}
