package synth

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

func polyHist(t *testing.T, coeffs []int64, x int64, trials int) finalsHist {
	t.Helper()
	spec := PolynomialSpec{Coeffs: coeffs, X: "x", Y: "y"}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.SetInitialByName("x", x)
	y := net.MustSpecies("y")
	var finals []int64
	for i := 0; i < trials; i++ {
		eng := sim.NewDirect(net, rng.NewStream(uint64(x)*1000+7, uint64(i)))
		res := sim.Run(eng, sim.RunOptions{MaxSteps: 5_000_000})
		if res.Reason != sim.StopQuiescent {
			t.Fatalf("polynomial %v at x=%d did not quiesce: %v", coeffs, x, res.Reason)
		}
		finals = append(finals, eng.State()[y])
	}
	return histOf(finals)
}

func TestEvalPolynomial(t *testing.T) {
	cases := []struct {
		coeffs []int64
		x      int64
		want   int64
	}{
		{[]int64{5}, 3, 5},
		{[]int64{2, 3}, 4, 14},
		{[]int64{0, 0, 1}, 3, 9},
		{[]int64{1, 2, 3}, 2, 17},
		{[]int64{0, -1, 1}, 3, 6}, // x² − x
		{[]int64{10, -5}, 3, 0},   // clamped at zero
	}
	for _, c := range cases {
		if got := EvalPolynomial(c.coeffs, c.x); got != c.want {
			t.Errorf("EvalPolynomial(%v, %d) = %d, want %d", c.coeffs, c.x, got, c.want)
		}
	}
}

func TestPolynomialConstant(t *testing.T) {
	h := polyHist(t, []int64{7}, 0, 50)
	if h.Mode() != 7 || h.FractionAt(7) != 1 {
		t.Fatalf("constant 7: mode=%d P(7)=%v", h.Mode(), h.FractionAt(7))
	}
}

func TestPolynomialLinear(t *testing.T) {
	// 2 + 3x at x = 5 → 17, exactly (no approximate modules involved).
	h := polyHist(t, []int64{2, 3}, 5, 50)
	if h.Mode() != 17 || h.FractionAt(17) != 1 {
		t.Fatalf("2+3x at 5: mode=%d P(17)=%v", h.Mode(), h.FractionAt(17))
	}
}

func TestPolynomialSquare(t *testing.T) {
	// x² at x = 3 → 9 (via the approximate Power module: assert mode and
	// a mean tolerance).
	h := polyHist(t, []int64{0, 0, 1}, 3, 120)
	if h.Mode() != 9 {
		t.Fatalf("x² at 3: mode=%d mean=%.2f", h.Mode(), h.Mean())
	}
	if math.Abs(h.Mean()-9) > 1.2 {
		t.Fatalf("x² at 3: mean=%.2f, want ≈9", h.Mean())
	}
}

func TestPolynomialMixed(t *testing.T) {
	// 1 + 2x + x² at x = 2 → 1 + 4 + 4 = 9.
	h := polyHist(t, []int64{1, 2, 1}, 2, 120)
	if h.Mode() != 9 {
		t.Fatalf("1+2x+x² at 2: mode=%d mean=%.2f", h.Mode(), h.Mean())
	}
}

func TestPolynomialNegativeCoefficient(t *testing.T) {
	// x² − x at x = 3 → 6 via the annihilation subtractor.
	h := polyHist(t, []int64{0, -1, 1}, 3, 120)
	if h.Mode() != 6 {
		t.Fatalf("x²−x at 3: mode=%d mean=%.2f", h.Mode(), h.Mean())
	}
	if math.Abs(h.Mean()-6) > 1.2 {
		t.Fatalf("x²−x at 3: mean=%.2f, want ≈6", h.Mean())
	}
}

func TestPolynomialNegativeClampsAtZero(t *testing.T) {
	// 2 − x at x = 10 → 0 (chemistry cannot go negative). Leftover y⁻ is
	// expected; y must be (near) zero.
	h := polyHist(t, []int64{2, -1}, 10, 60)
	if h.Mode() != 0 {
		t.Fatalf("2−x at 10: mode=%d", h.Mode())
	}
}

func TestPolynomialValidation(t *testing.T) {
	cases := []PolynomialSpec{
		{Coeffs: []int64{1}, X: "", Y: "y"},
		{Coeffs: []int64{1}, X: "x", Y: "x"},
		{Coeffs: []int64{0, 0}, X: "x", Y: "y"},
		{Coeffs: nil, X: "x", Y: "y"},
		{Coeffs: []int64{1}, X: "x", Y: "y", Bands: RateBands{Slowest: -1, Sep: 2}},
	}
	for i, s := range cases {
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestPolynomialNetworkValidates(t *testing.T) {
	for _, coeffs := range [][]int64{{3}, {1, 2}, {0, 0, 2}, {1, -1, 1}} {
		net, err := PolynomialSpec{Coeffs: coeffs, X: "x", Y: "y"}.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.SetInitialByName("x", 2)
		if errs := chem.Errors(chem.Validate(net)); len(errs) > 0 {
			t.Errorf("coeffs %v: %v", coeffs, errs)
		}
	}
}

func TestPolynomialMeanTracksValueProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property sweep")
	}
	// Sweep linear polynomials: exact values expected.
	for _, c0 := range []int64{0, 3} {
		for _, c1 := range []int64{1, 4} {
			for _, x := range []int64{0, 1, 6} {
				if c0 == 0 && x == 0 {
					continue // zero output: nothing to check beyond quiescence
				}
				h := polyHist(t, []int64{c0, c1}, x, 20)
				want := EvalPolynomial([]int64{c0, c1}, x)
				if h.Mode() != want {
					t.Errorf("(%d + %dx)(%d): mode=%d want=%d",
						c0, c1, x, h.Mode(), want)
				}
			}
		}
	}
}
