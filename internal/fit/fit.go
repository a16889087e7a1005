// Package fit provides the small amount of numerical curve fitting the
// paper's evaluation needs: linear least squares (via Householder QR) and
// the paper's a + b·log₂(x) + c·x response model (Equation 14).
package fit

import (
	"fmt"
	"math"
)

// LeastSquares solves min ‖A·x − b‖₂ for x, where A is given as rows
// (len(rows) observations × p predictors). It uses Householder QR with
// column pivoting omitted (the design matrices here are tiny and well
// conditioned). It returns an error if the system is underdetermined
// (rows < cols) or numerically rank deficient.
func LeastSquares(rows [][]float64, b []float64) ([]float64, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("fit: no observations")
	}
	p := len(rows[0])
	if p == 0 {
		return nil, fmt.Errorf("fit: no predictors")
	}
	if len(b) != n {
		return nil, fmt.Errorf("fit: %d rows but %d responses", n, len(b))
	}
	if n < p {
		return nil, fmt.Errorf("fit: underdetermined system (%d rows < %d cols)", n, p)
	}
	// Working copies: a is column-major n×p, y is the response.
	a := make([][]float64, n)
	for i, row := range rows {
		if len(row) != p {
			return nil, fmt.Errorf("fit: ragged design matrix at row %d", i)
		}
		a[i] = append([]float64(nil), row...)
	}
	y := append([]float64(nil), b...)

	// Householder QR: for each column k, reflect to zero out below-diagonal.
	for k := 0; k < p; k++ {
		// norm of column k from row k down
		norm := 0.0
		for i := k; i < n; i++ {
			norm += a[i][k] * a[i][k]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, fmt.Errorf("fit: rank-deficient design matrix (column %d)", k)
		}
		if a[k][k] > 0 {
			norm = -norm
		}
		// v = x − norm·e1, normalised so v[k] = 1 implicitly via beta.
		v := make([]float64, n-k)
		v[0] = a[k][k] - norm
		for i := k + 1; i < n; i++ {
			v[i-k] = a[i][k]
		}
		vNorm2 := 0.0
		for _, vi := range v {
			vNorm2 += vi * vi
		}
		if vNorm2 == 0 {
			continue
		}
		// Apply H = I − 2vvᵀ/‖v‖² to remaining columns and to y.
		for j := k; j < p; j++ {
			dot := 0.0
			for i := k; i < n; i++ {
				dot += v[i-k] * a[i][j]
			}
			f := 2 * dot / vNorm2
			for i := k; i < n; i++ {
				a[i][j] -= f * v[i-k]
			}
		}
		dot := 0.0
		for i := k; i < n; i++ {
			dot += v[i-k] * y[i]
		}
		f := 2 * dot / vNorm2
		for i := k; i < n; i++ {
			y[i] -= f * v[i-k]
		}
	}
	// Back-substitute R·x = Qᵀy (upper p×p block of a).
	x := make([]float64, p)
	for k := p - 1; k >= 0; k-- {
		if a[k][k] == 0 || math.Abs(a[k][k]) < 1e-12*float64(n) {
			return nil, fmt.Errorf("fit: rank-deficient design matrix (pivot %d)", k)
		}
		sum := y[k]
		for j := k + 1; j < p; j++ {
			sum -= a[k][j] * x[j]
		}
		x[k] = sum / a[k][k]
	}
	return x, nil
}

// RSquared returns the coefficient of determination of predictions vs.
// observations. It returns 1 when the observations are constant and
// perfectly predicted, and can be negative for fits worse than the mean.
func RSquared(observed, predicted []float64) float64 {
	if len(observed) != len(predicted) || len(observed) == 0 {
		panic("fit: RSquared length mismatch")
	}
	mean := 0.0
	for _, v := range observed {
		mean += v
	}
	mean /= float64(len(observed))
	ssRes, ssTot := 0.0, 0.0
	for i, v := range observed {
		d := v - predicted[i]
		ssRes += d * d
		m := v - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// LogLin is the paper's response model P = A + B·log₂(x) + C·x
// (Equation 14 has A=15, B=6, C=1/6 with P in percent).
type LogLin struct {
	A, B, C float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Eval evaluates the model at x (x must be positive).
func (m LogLin) Eval(x float64) float64 {
	return m.A + m.B*math.Log2(x) + m.C*x
}

// String renders the fitted curve in the paper's form.
func (m LogLin) String() string {
	return fmt.Sprintf("%.4g + %.4g·log2(x) + %.4g·x  (R²=%.4f)", m.A, m.B, m.C, m.R2)
}

// FitLogLin fits P = A + B·log₂(x) + C·x to the data by least squares.
// All xs must be positive. It needs at least 3 points.
func FitLogLin(xs, ys []float64) (LogLin, error) {
	if len(xs) != len(ys) {
		return LogLin{}, fmt.Errorf("fit: %d xs but %d ys", len(xs), len(ys))
	}
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return LogLin{}, fmt.Errorf("fit: non-positive x=%v at index %d", x, i)
		}
		rows[i] = []float64{1, math.Log2(x), x}
	}
	coef, err := LeastSquares(rows, ys)
	if err != nil {
		return LogLin{}, err
	}
	m := LogLin{A: coef[0], B: coef[1], C: coef[2]}
	pred := make([]float64, len(xs))
	for i, x := range xs {
		pred[i] = m.Eval(x)
	}
	m.R2 = RSquared(ys, pred)
	return m, nil
}
