package sim

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// These tests pin the hybrid's generic tau-leap path: fast-eligible
// channels that belong to no relay are batched in Poisson leaps whose
// length cgpTau bounds. With nothing protected every channel is
// fast-eligible, so a network without a relay leaps whenever the batch
// pays for itself.

// runHybrid steps h to horizon and returns the final state.
func runHybrid(h *Hybrid, horizon float64) chem.State {
	for {
		if _, status := h.Step(horizon); status != Fired {
			return h.State()
		}
	}
}

func TestTauLeapMatchesExactOnEquilibrium(t *testing.T) {
	// a <-> b: stationary E[A] = N·k2/(k1+k2) = 4000·1/3.
	net := chem.MustParseNetwork(`
a = 4000
a -> b @ 2
b -> a @ 1
`)
	h := NewHybrid(net, nil, rng.New(67))
	const trials = 40
	sum := 0.0
	for i := 0; i < trials; i++ {
		h.Reset(net.InitialState(), 0)
		sum += float64(runHybrid(h, 10)[0])
	}
	if h.FastEvents() == 0 {
		t.Fatal("no events batched: the leap path never engaged")
	}
	mean := sum / trials
	want := 4000.0 / 3
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("leap-path equilibrium mean = %v, want ~%v", mean, want)
	}
}

func TestTauLeapNeverGoesNegative(t *testing.T) {
	// Aggressive consumption with a rate cliff: counts must stay >= 0
	// thanks to leap rejection.
	net := chem.MustParseNetwork(`
a = 50
b = 50
a + b -> c @ 10
c -> 0 @ 0.1
`)
	h := NewHybrid(net, nil, rng.New(71))
	for i := 0; i < 20; i++ {
		h.Reset(net.InitialState(), 0)
		for {
			_, status := h.Step(NoHorizon())
			if !h.State().NonNegative() {
				t.Fatalf("negative count: %v", h.State())
			}
			if status != Fired {
				break
			}
		}
	}
}

// TestTauLeapZeroAllocsPerLeap pins the scratch-buffer hoisting on the
// leap path: after construction, steps that leap a fast pair against a
// slow protected channel's waiting-time budget must not allocate.
func TestTauLeapZeroAllocsPerLeap(t *testing.T) {
	net := chem.MustParseNetwork(`
x = 4000
y = 4000
s = 1000000
x -> y @ 2
y -> x @ 1
s -> t @ 0.0001
`)
	h := NewHybrid(net, []chem.Species{net.MustSpecies("t")}, rng.New(97))
	for i := 0; i < 10; i++ {
		h.Step(NoHorizon())
	}
	if h.FastEvents() == 0 {
		t.Fatal("no events batched: the leap path never engaged")
	}
	allocs := testing.AllocsPerRun(200, func() {
		h.Step(NoHorizon())
	})
	if allocs != 0 {
		t.Fatalf("leaping Step allocates %.1f times per call, want 0", allocs)
	}
	// Reset must be allocation-free too (the engine-reuse path).
	st0 := net.InitialState()
	allocs = testing.AllocsPerRun(200, func() {
		h.Reset(st0, 0)
		h.Step(NoHorizon())
	})
	if allocs != 0 {
		t.Fatalf("Reset+Step allocates %.1f times per call, want 0", allocs)
	}
}

// TestTauLeapVarianceBoundOnOpposingFlux pins cgpTau's second-moment term
// on the leap path: the isomerisation x ⇌ y (no relay: each side's sink
// has a product) started balanced at 10 000 each has drift ≈ 0 throughout,
// so a mean-drift-only bound lets τ explode and the leap noise scatters
// the ensemble variance far past the analytic N/4 = 5 000 (x is
// Binomial(20 000, 1/2) at stationarity). With the variance term,
// τ ≤ (εx)²/σ² keeps each leap's spread below εx and the ensemble variance
// lands near the analytic value as ε shrinks.
func TestTauLeapVarianceBoundOnOpposingFlux(t *testing.T) {
	net := chem.MustParseNetwork(`
x = 10000
y = 10000
x -> y @ 1
y -> x @ 1
`)
	const horizon = 5.0 // ten relaxation times 1/(k1+k2)
	const analyticVar = 5000.0
	const trials = 300
	variance := func(eps float64) float64 {
		h := NewHybrid(net, nil, rng.New(101))
		if len(h.Partition().Relays) != 0 {
			t.Fatalf("x ⇌ y must not be a relay: %+v", h.Partition().Relays)
		}
		h.epsilon = eps
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			h.Reset(net.InitialState(), 0)
			v := float64(runHybrid(h, horizon)[0])
			sum += v
			sumSq += v * v
		}
		mean := sum / trials
		return sumSq/trials - mean*mean
	}
	loose := variance(0.05)
	tight := variance(0.005)
	if tight > 2*analyticVar || tight < analyticVar/2 {
		t.Errorf("ensemble variance at eps=0.005 is %.0f, want within 2x of %g",
			tight, analyticVar)
	}
	// Convergence direction: tightening epsilon must not move the variance
	// further from the analytic value.
	errLoose := math.Abs(loose - analyticVar)
	errTight := math.Abs(tight - analyticVar)
	if errTight > errLoose+analyticVar/2 {
		t.Errorf("variance error grew as epsilon shrank: eps=0.05 -> %.0f, eps=0.005 -> %.0f",
			loose, tight)
	}
	t.Logf("ensemble variance: eps=0.05 -> %.0f, eps=0.005 -> %.0f (analytic %g)",
		loose, tight, analyticVar)
}

// TestCGPTauVarianceTermAtBalance pins cgpTau itself on the same kernel at
// the balanced state x = y = 10 000: the drift of both species is exactly
// zero, so only the variance term bounds the leap, at
// τ = (εx)²/σ² = 300²/20 000 = 4.5 for ε = 0.03. Without the variance term
// nothing constrains τ and cgpTau returns +Inf. aLeap = +Inf asks for the
// full minimum.
func TestCGPTauVarianceTermAtBalance(t *testing.T) {
	net := chem.MustParseNetwork(`
x = 10000
y = 10000
x -> y @ 1
y -> x @ 1
`)
	h := NewHybrid(net, nil, rng.New(1))
	if len(h.leapChans) != 2 {
		t.Fatalf("leap pool = %v, want both channels", h.leapChans)
	}
	tau := h.cgpTau(math.Inf(1))
	if tau != 4.5 {
		t.Fatalf("cgpTau at balance = %v, want exactly 4.5 (variance bound, zero drift)", tau)
	}
}

// TestCGPTauEarlyExitKeepsTheLeapDecision sweeps the states of two leap
// pools, the leap-mixed digest network (x ⇌ y racing a slow protected
// s → t) and the bare x ⇌ y, and checks cgpTau's early exit against the
// full minimum (aLeap = +Inf): the same leap decision τ·aLeap ≥ leapFactor
// at every state, and the same τ bits wherever the pool leaps. The sweep
// must reach both decisions and stop early somewhere.
func TestCGPTauEarlyExitKeepsTheLeapDecision(t *testing.T) {
	counts := []int64{0, 1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10000, 20000}
	for _, tc := range []struct {
		name, src string
		protect   []string
	}{
		{"leap-mixed", `
x = 10000
y = 10000
s = 50
x -> y @ 1
y -> x @ 1
s -> t @ 0.05
`, []string{"t"}},
		{"isomerisation", `
x = 10000
y = 10000
x -> y @ 1
y -> x @ 1
`, nil},
	} {
		net := chem.MustParseNetwork(tc.src)
		var protected []chem.Species
		for _, name := range tc.protect {
			protected = append(protected, net.MustSpecies(name))
		}
		h := NewHybrid(net, protected, rng.New(1))
		x, y := net.MustSpecies("x"), net.MustSpecies("y")
		var leaps, holds, stops int
		for _, nx := range counts {
			for _, ny := range counts {
				st := net.InitialState()
				st[x], st[y] = nx, ny
				h.Reset(st, 0)
				_, aLeap := h.refresh()
				if aLeap <= 0 {
					continue
				}
				full := h.cgpTau(math.Inf(1))
				fullEvals := h.LeapBoundEvals()
				early := h.cgpTau(aLeap)
				earlyEvals := h.LeapBoundEvals() - fullEvals
				leapFull, leapEarly := !(full*aLeap < leapFactor), !(early*aLeap < leapFactor)
				switch {
				case leapFull != leapEarly:
					t.Errorf("%s x=%d y=%d: early exit leaps=%v (τ=%v), full minimum leaps=%v (τ=%v)",
						tc.name, nx, ny, leapEarly, early, leapFull, full)
				case leapFull && math.Float64bits(early) != math.Float64bits(full):
					t.Errorf("%s x=%d y=%d: leaping τ=%v, full minimum %v", tc.name, nx, ny, early, full)
				case leapFull:
					leaps++
				default:
					holds++
				}
				if earlyEvals < fullEvals {
					stops++
				}
			}
		}
		t.Logf("%s: %d leaping states, %d holding, %d early exits", tc.name, leaps, holds, stops)
		if leaps == 0 || holds == 0 || stops == 0 {
			t.Errorf("%s: sweep must leap, hold and stop early: %d, %d, %d", tc.name, leaps, holds, stops)
		}
	}
}

// TestTauLeapHybridConvergenceToAnalyticMoments: on a birth-death network
// with known analytic moments — immigration at λ, per-molecule death at μ,
// started at the fixed point λ/μ — the law at the horizon is (very nearly)
// Poisson(λ/μ): mean = var = λ/μ. The hybrid recognises the pair as a
// relay and is exact at every ε — that is the engine's whole point.
func TestTauLeapHybridConvergenceToAnalyticMoments(t *testing.T) {
	net := chem.MustParseNetwork(`
a = 2000
0 -> a @ 2000
a -> 0 @ 1
`)
	const (
		horizon = 4.0
		trials  = 400
		wantM   = 2000.0
	)
	// Exact transient variance from a0 = λ/μ.
	wantV := 2000*(1-math.Exp(-horizon)) + 2000*math.Exp(-horizon)*(1-math.Exp(-horizon))
	for k, eps := range []float64{0.2, 0.05, 0.01} {
		h := NewHybrid(net, nil, rng.New(uint64(600+k)))
		h.epsilon = eps
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			h.Reset(net.InitialState(), 0)
			v := float64(runHybrid(h, horizon)[0])
			sum += v
			sumSq += v * v
		}
		hm := sum / trials
		hv := sumSq/trials - hm*hm
		t.Logf("eps=%g: hybrid mean %.1f, var %.1f", eps, hm, hv)
		// Exact at every epsilon (relay), so both moments must sit inside
		// Monte Carlo noise regardless of eps.
		if math.Abs(hm-wantM) > 0.02*wantM {
			t.Errorf("eps=%g: hybrid mean %.1f, want ~%g", eps, hm, wantM)
		}
		if hv < wantV/2 || hv > 2*wantV {
			t.Errorf("eps=%g: hybrid var %.1f, want ~%.1f (exact relay)", eps, hv, wantV)
		}
	}
}
