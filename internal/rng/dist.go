package rng

import "math"

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). It panics if rate <= 0. This is the inter-event time
// distribution of the stochastic simulation algorithm; it is sampled by the
// ziggurat method (see ziggurat.go), which avoids a logarithm on ~99% of
// draws.
func (p *PCG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with rate <= 0")
	}
	return p.expZig() / rate
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, using the Marsaglia polar method.
func (p *PCG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Discrete samples an index i with probability weights[i] / sum(weights).
// Negative weights are treated as zero. It panics if the total weight is not
// positive.
func (p *PCG) Discrete(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		panic("rng: Discrete with non-positive or non-finite total weight")
	}
	target := p.Float64() * total
	acc := 0.0
	last := -1
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		last = i
		if target < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the final positive-weight index.
	return last
}

// Poisson returns a Poisson-distributed variate with the given mean.
// It panics if mean < 0. Small means use Knuth's product method; large means
// use Hörmann's PTRS transformed-rejection sampler, which draws from the
// true Poisson distribution at every mean (a rounded normal, used here
// previously, has no skew and a truncated left tail — visible bias in
// batched counts). The hybrid's relay births rely on this exactness.
func (p *PCG) Poisson(mean float64) int64 {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic("rng: Poisson with negative or NaN mean")
	case mean == 0:
		return 0
	case mean < 30:
		limit := math.Exp(-mean)
		prod := p.Float64()
		var n int64
		for prod > limit {
			n++
			prod *= p.Float64()
		}
		return n
	default:
		return p.poissonPTRS(mean)
	}
}

// poissonPTRS samples Poisson(mean) by transformed rejection with squeeze
// (Hörmann 1993, "The transformed rejection method for generating Poisson
// random variables", algorithm PTRS). Valid for mean >= 10; used for
// mean >= 30 where Knuth's product method starts to need many uniforms and
// underflows exp(-mean). Exact: the accepted k follows the true Poisson law.
func (p *PCG) poissonPTRS(mean float64) int64 {
	smu := math.Sqrt(mean)
	b := 0.931 + 2.53*smu
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := math.Log(mean)
	for {
		u := p.Float64() - 0.5
		v := p.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-lg {
			return int64(k)
		}
	}
}

// Binomial returns the number of successes in n independent trials each
// succeeding with probability prob. It panics if n < 0 or prob is outside
// [0, 1]. Every regime samples the exact distribution: small n uses direct
// inversion; large n with few expected successes (or failures) uses
// geometric skip-sampling in O(min(np, n(1-p)) + 1); the remaining
// large-n regime uses Hörmann's BTRS transformed rejection. The
// skip-sampling path is what the hybrid engine's relay propagator leans
// on: Binomial(10⁴ births, survival ≈ 10⁻¹⁰) must cost O(1), not O(n) —
// and the relay's exactness claim is why no regime may approximate.
func (p *PCG) Binomial(n int64, prob float64) int64 {
	if n < 0 || prob < 0 || prob > 1 || math.IsNaN(prob) {
		panic("rng: Binomial with invalid parameters")
	}
	if n == 0 || prob == 0 {
		return 0
	}
	if prob == 1 {
		return n
	}
	if n <= 64 {
		var k int64
		for i := int64(0); i < n; i++ {
			if p.Float64() < prob {
				k++
			}
		}
		return k
	}
	mean := float64(n) * prob
	switch {
	case mean < 16:
		return p.binomialSkip(n, prob)
	case float64(n)*(1-prob) < 16:
		return n - p.binomialSkip(n, 1-prob)
	case prob <= 0.5:
		return p.binomialBTRS(n, prob)
	default:
		return n - p.binomialBTRS(n, 1-prob)
	}
}

// binomialBTRS samples Binomial(n, prob) for prob <= 0.5 with
// n·prob >= 10 by transformed rejection with squeeze (Hörmann 1993, "The
// generation of binomial random variates", algorithm BTRS). Exact: the
// accepted k follows the true binomial law, with ~1.15 uniform pairs per
// variate.
func (p *PCG) binomialBTRS(n int64, prob float64) int64 {
	nf := float64(n)
	q := 1 - prob
	spq := math.Sqrt(nf * prob * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*prob
	c := nf*prob + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(prob / q)
	m := math.Floor((nf + 1) * prob) // mode
	lgM, _ := math.Lgamma(m + 1)
	lgNM, _ := math.Lgamma(nf - m + 1)
	h := lgM + lgNM
	for {
		u := p.Float64() - 0.5
		v := p.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		lgK, _ := math.Lgamma(k + 1)
		lgNK, _ := math.Lgamma(nf - k + 1)
		if math.Log(v*alpha/(a/(us*us)+b)) <= h-lgK-lgNK+(k-m)*lpq {
			return int64(k)
		}
	}
}

// binomialSkip counts successes by sampling the geometric gaps between them
// (Devroye's "second waiting time" method): exact, with expected cost
// O(np + 1).
func (p *PCG) binomialSkip(n int64, prob float64) int64 {
	logq := math.Log1p(-prob) // log(1-prob), stable for small prob
	var k, i int64
	for {
		// Failures before the next success ~ Geometric(prob).
		g := math.Log(p.Float64Open()) / logq
		if g >= float64(n-i) { // next success would land beyond trial n
			return k
		}
		i += int64(g) + 1
		k++
	}
}

// Shuffle randomises the order of the first n elements using swap, with the
// Fisher–Yates algorithm. It panics if n < 0.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	p.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
