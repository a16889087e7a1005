package fit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stochsynth/internal/rng"
)

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 + 3x fit from exact data.
	rows := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	b := []float64{2, 5, 8, 11}
	x, err := LeastSquares(rows, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("coefficients = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy data around y = 1 + 0.5x; the fit must land near the truth.
	gen := rng.New(5)
	var rows [][]float64
	var b []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		rows = append(rows, []float64{1, x})
		b = append(b, 1+0.5*x+gen.Normal(0, 0.1))
	}
	coef, err := LeastSquares(rows, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-1) > 0.05 || math.Abs(coef[1]-0.5) > 0.005 {
		t.Fatalf("coefficients = %v, want ~[1 0.5]", coef)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system accepted")
	}
	if _, err := LeastSquares([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("mismatched responses accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	// Rank-deficient: two identical columns.
	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient matrix accepted")
	}
	// Zero column.
	rows = [][]float64{{0, 1}, {0, 2}, {0, 3}}
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); err == nil {
		t.Error("zero column accepted")
	}
}

func TestFitLogLinRecoversEquation14(t *testing.T) {
	// Sample the paper's Equation 14 exactly and refit: coefficients must
	// come back as (15, 6, 1/6).
	truth := LogLin{A: 15, B: 6, C: 1.0 / 6}
	var xs, ys []float64
	for moi := 1; moi <= 10; moi++ {
		xs = append(xs, float64(moi))
		ys = append(ys, truth.Eval(float64(moi)))
	}
	m, err := FitLogLin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-15) > 1e-8 || math.Abs(m.B-6) > 1e-8 || math.Abs(m.C-1.0/6) > 1e-8 {
		t.Fatalf("fit = %+v, want (15, 6, 1/6)", m)
	}
	if m.R2 < 1-1e-12 {
		t.Fatalf("R² = %v, want 1", m.R2)
	}
}

func TestFitLogLinWithBinomialNoise(t *testing.T) {
	// Eq. 14 sampled through binomial noise at n=10000 (like a Monte Carlo
	// estimate with 10k trials) must still recover the coefficients well.
	truth := LogLin{A: 15, B: 6, C: 1.0 / 6}
	gen := rng.New(77)
	var xs, ys []float64
	for moi := 1; moi <= 10; moi++ {
		p := truth.Eval(float64(moi)) / 100
		hits := gen.Binomial(10000, p)
		xs = append(xs, float64(moi))
		ys = append(ys, 100*float64(hits)/10000)
	}
	m, err := FitLogLin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-15) > 1.5 || math.Abs(m.B-6) > 1.5 || math.Abs(m.C-1.0/6) > 0.3 {
		t.Fatalf("noisy fit = %+v, want ≈(15, 6, 0.167)", m)
	}
	if m.R2 < 0.98 {
		t.Fatalf("R² = %v", m.R2)
	}
}

func TestFitLogLinRejectsBadInput(t *testing.T) {
	if _, err := FitLogLin([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitLogLin([]float64{0, 1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("x=0 accepted (log2 undefined)")
	}
}

func TestLogLinString(t *testing.T) {
	s := LogLin{A: 15, B: 6, C: 0.1667, R2: 0.99}.String()
	for _, frag := range []string{"15", "log2", "R²"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q lacks %q", s, frag)
		}
	}
}

func TestRSquaredPerfectAndPoor(t *testing.T) {
	obs := []float64{1, 2, 3}
	if got := RSquared(obs, []float64{1, 2, 3}); got != 1 {
		t.Fatalf("perfect fit R² = %v", got)
	}
	if got := RSquared(obs, []float64{2, 2, 2}); got != 0 {
		t.Fatalf("mean-predictor R² = %v, want 0", got)
	}
	if got := RSquared(obs, []float64{3, 2, 1}); got >= 0 {
		t.Fatalf("anti-fit R² = %v, want negative", got)
	}
}

func TestRSquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	RSquared([]float64{1}, []float64{1, 2})
}

func TestLeastSquaresRoundTripProperty(t *testing.T) {
	// For random well-conditioned 2-predictor systems built from known
	// coefficients, LeastSquares must recover them.
	gen := rng.New(123)
	f := func(c0x, c1x int8) bool {
		c0 := float64(c0x) / 8
		c1 := float64(c1x) / 8
		var rows [][]float64
		var b []float64
		for i := 0; i < 12; i++ {
			x := float64(i) + gen.Float64()
			rows = append(rows, []float64{1, x})
			b = append(b, c0+c1*x)
		}
		got, err := LeastSquares(rows, b)
		if err != nil {
			return false
		}
		return math.Abs(got[0]-c0) < 1e-6 && math.Abs(got[1]-c1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
