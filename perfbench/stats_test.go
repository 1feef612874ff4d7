package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, q int
		ok   bool
		want float64
	}{
		{1000, 990, true, 990},
		{999, 990, false, 990},
		{100, 900, true, 90},
		{99, 900, false, 90},
		{20, 500, true, 10},
		{19, 500, false, 10},
	}
	for _, c := range cases {
		v, ok := percentile(ramp(c.n), c.q)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, q=%d) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 500); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestMedianPrintsSampleCount(t *testing.T) {
	m, ok := median([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	if !ok || m.Value != 10 || m.N != 20 || m.Q != 500 {
		t.Errorf("median = %+v, %v", m, ok)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Errorf("geomean with a zero = %g, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean of nothing = %g, want 0", g)
	}
}

func TestRatioErr(t *testing.T) {
	for _, c := range []struct{ achieved, target, want float64 }{
		{110, 100, 0.1}, {90, 100, 0.1}, {20, 20, 0}, {30, 10, 2},
	} {
		if got := ratioErr(c.achieved, c.target); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ratioErr(%g, %g) = %g, want %g", c.achieved, c.target, got, c.want)
		}
	}
}

func TestPlainMedian(t *testing.T) {
	if m := plainMedian([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := plainMedian([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}
