package mc

import "math"

// Proportion is a binomial proportion estimator: Successes out of Trials.
type Proportion struct {
	Successes int64
	Trials    int64
}

// Estimate returns the point estimate Successes/Trials (0 for zero trials).
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// StdErr returns the plug-in standard error sqrt(p̂(1−p̂)/n).
func (p Proportion) StdErr() float64 {
	if p.Trials == 0 {
		return 0
	}
	est := p.Estimate()
	return math.Sqrt(est * (1 - est) / float64(p.Trials))
}

// Wilson returns the Wilson score interval at the given z value (1.96 for
// 95%). Unlike the Wald interval it behaves sensibly at proportions near 0
// and 1, which is exactly the regime of the paper's Figure 3 (error rates
// down to 0.001%).
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	phat := p.Estimate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	// At the boundaries the exact interval endpoints are 0 and 1; clamp away
	// the floating-point residue so ordering invariants hold exactly.
	if lo < 0 || p.Successes == 0 {
		lo = 0
	}
	if hi > 1 || p.Successes == p.Trials {
		hi = 1
	}
	return lo, hi
}

// Z95 is the normal quantile for 95% two-sided intervals.
const Z95 = 1.959963984540054
