package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{200, 0.95, true, 190},
		{199, 0.95, false, 0},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{0, 0.5, false, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", 100*c.q, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %v, want %v", 100*c.q, c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
