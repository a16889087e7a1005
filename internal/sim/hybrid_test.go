package sim

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// miniRaceNet is a miniature of the synthesised lambda hot path: a relay
// pair (clock + first-order drain) burning almost all events, plus a slow
// two-outcome race that decides the observable.
func miniRaceNet() *chem.Network {
	return chem.MustParseNetwork(`
b = 1
e1 = 60
e2 = 40
f1 = 10
f2 = 10
b -> b + a @ 0.0001
a -> 0 @ 10
e1 -> d1 @ 1e-9
e2 -> d2 @ 1e-9
d1 + f1 -> d1 + o1 @ 1e-9
d2 + f2 -> d2 + o2 @ 1e-9
`)
}

func miniProtected(net *chem.Network) []chem.Species {
	return []chem.Species{net.MustSpecies("o1"), net.MustSpecies("o2")}
}

// TestHybridExactOnImmigrationDeath: with the whole network a relay, the
// hybrid's end-state law is the exact Poisson transient of the
// immigration-death process — checked by chi-square against the exact pmf,
// not just moments.
func TestHybridExactOnImmigrationDeath(t *testing.T) {
	net := chem.MustParseNetwork(`
0 -> a @ 50
a -> 0 @ 1
`)
	h := NewHybrid(net, nil, rng.New(211))
	if len(h.Partition().Relays) != 1 {
		t.Fatalf("expected one relay, got %+v", h.Partition().Relays)
	}
	const horizon = 3.0
	mean := 50 * (1 - math.Exp(-horizon)) // exact Poisson(mean) from a0 = 0
	const trials = 20000
	// Bin at mean + z*sqrt(mean), z in -2..2.
	sd := math.Sqrt(mean)
	var bounds []int64
	for z := -2.0; z <= 2.01; z += 0.5 {
		bounds = append(bounds, int64(math.Ceil(mean+z*sd)))
	}
	probs := make([]float64, len(bounds)+1)
	logMean := math.Log(mean)
	for k := int64(0); k < int64(mean+10*sd); k++ {
		cell := 0
		for cell < len(bounds) && k >= bounds[cell] {
			cell++
		}
		lg, _ := math.Lgamma(float64(k) + 1)
		probs[cell] += math.Exp(float64(k)*logMean - mean - lg)
	}
	var total float64
	for _, p := range probs {
		total += p
	}
	probs[len(probs)-1] += 1 - total
	counts := make([]int64, len(probs))
	for i := 0; i < trials; i++ {
		h.Reset(net.InitialState(), 0)
		for {
			if _, status := h.Step(horizon); status != Fired {
				break
			}
		}
		if h.Time() != horizon {
			t.Fatalf("time = %v, want clamp to %v", h.Time(), horizon)
		}
		k := h.State()[0]
		cell := 0
		for cell < len(bounds) && k >= bounds[cell] {
			cell++
		}
		counts[cell]++
	}
	stat := 0.0
	for i, c := range counts {
		expected := probs[i] * trials
		if expected < 5 {
			t.Fatalf("cell %d expected %.2f < 5", i, expected)
		}
		d := float64(c) - expected
		stat += d * d / expected
	}
	const crit999df9 = 27.877
	if stat > crit999df9 {
		t.Errorf("hybrid end-state law differs from exact Poisson transient: chi2 = %.2f > %.2f\ncounts %v",
			stat, crit999df9, counts)
	} else {
		t.Logf("chi2 = %.2f (crit %.2f), mean %.2f", stat, crit999df9, mean)
	}
}

// TestHybridMatchesDirectOnMiniRace: the hybrid and Direct must produce the
// same winner distribution on the miniature race (chi-square homogeneity at
// significance 0.001), while the hybrid batches nearly all events.
func TestHybridMatchesDirectOnMiniRace(t *testing.T) {
	net := miniRaceNet()
	o1 := net.MustSpecies("o1")
	o2 := net.MustSpecies("o2")
	const threshold = 5
	const trials = 1200
	race := func(eng Engine) int {
		res := Run(eng, RunOptions{
			MaxSteps: 5_000_000,
			StopWhen: func(st chem.State, _ float64) bool {
				return st[o1] >= threshold || st[o2] >= threshold
			},
		})
		if res.Reason != StopPredicate {
			return -1
		}
		if eng.State()[o1] >= threshold {
			return 0
		}
		return 1
	}
	var dirCounts, hybCounts [2]int64
	var hybFastEvents int64
	dir := NewDirect(net, rng.New(0))
	hyb := NewHybrid(net, miniProtected(net), rng.New(0))
	if len(hyb.Partition().Relays) != 1 {
		t.Fatalf("mini race should have one relay (species a): %+v", hyb.Partition().Relays)
	}
	dirGen := rng.NewStream(7, 0)
	hybGen := rng.NewStream(8, 0)
	dir = NewDirect(net, dirGen)
	hyb = NewHybrid(net, miniProtected(net), hybGen)
	for i := 0; i < trials; i++ {
		dirGen.Reseed(7, uint64(i))
		dir.Reset(net.InitialState(), 0)
		if w := race(dir); w >= 0 {
			dirCounts[w]++
		} else {
			t.Fatal("direct trial unresolved")
		}
		hybGen.Reseed(8, uint64(i))
		hyb.Reset(net.InitialState(), 0)
		if w := race(hyb); w >= 0 {
			hybCounts[w]++
		} else {
			t.Fatal("hybrid trial unresolved")
		}
		hybFastEvents += hyb.FastEvents()
	}
	// Pooled two-sample homogeneity chi-square, df = 1.
	stat := 0.0
	for i := 0; i < 2; i++ {
		pooled := float64(dirCounts[i]+hybCounts[i]) / float64(2*trials)
		for _, c := range []int64{dirCounts[i], hybCounts[i]} {
			expected := pooled * trials
			d := float64(c) - expected
			stat += d * d / expected
		}
	}
	const crit999df1 = 10.828
	if stat > crit999df1 {
		t.Errorf("hybrid vs Direct winner distributions differ: chi2 = %.3f > %.3f\ndirect %v hybrid %v",
			stat, crit999df1, dirCounts, hybCounts)
	} else {
		t.Logf("homogeneity chi2 = %.3f (crit %.3f): direct %v hybrid %v",
			stat, crit999df1, dirCounts, hybCounts)
	}
	if hybFastEvents < 1000*trials {
		t.Errorf("hybrid batched only %d fast events over %d trials; relay propagation seems inactive",
			hybFastEvents, trials)
	}
}

// TestHybridRelayOnlySemantics: when every remaining channel is
// relay-internal, a finite horizon clamps (with the relay advanced) and an
// infinite horizon reports Quiescent (the slow marginal is frozen forever).
func TestHybridRelayOnlySemantics(t *testing.T) {
	net := chem.MustParseNetwork(`
b = 1
b -> b + a @ 5
a -> 0 @ 1
`)
	h := NewHybrid(net, nil, rng.New(307))
	if _, status := h.Step(10); status != Horizon {
		t.Fatalf("finite horizon: status = %v, want Horizon", status)
	}
	if h.Time() != 10 {
		t.Fatalf("time = %v, want 10", h.Time())
	}
	if h.FastEvents() == 0 {
		t.Fatal("relay did not advance over the clamped interval")
	}
	if _, status := h.Step(NoHorizon()); status != Quiescent {
		t.Fatalf("infinite horizon with frozen slow marginal: want Quiescent")
	}

	empty := chem.MustParseNetwork(`a -> b @ 1`)
	he := NewHybrid(empty, nil, rng.New(308))
	he.Reset(chem.State{0, 0}, 0)
	if _, status := he.Step(NoHorizon()); status != Quiescent {
		t.Fatal("empty state must be Quiescent")
	}
}

// TestHybridDependentGatesRelay: while a catalytic dependent of the relay
// species can fire, the relay must fall back to explicit stepping — the
// dependent's firings depend on the relay count's actual trajectory.
func TestHybridDependentGatesRelay(t *testing.T) {
	net := chem.MustParseNetwork(`
b = 1
x = 40
b -> b + a @ 2
a -> 0 @ 1
2 x + a -> c + a @ 0.5
`)
	h := NewHybrid(net, nil, rng.New(311))
	if len(h.Partition().Relays) != 1 || len(h.Partition().Relays[0].Dependents) != 1 {
		t.Fatalf("partition = %+v", h.Partition())
	}
	// With x >= 2 the halving channel is unblocked, so the relay may not be
	// propagated analytically: every a-birth must be an explicit event.
	// Once x drains below 2 the dependent blocks, the relay re-engages, and
	// the frozen slow marginal reports Quiescent under an infinite horizon.
	x := net.MustSpecies("x")
	for i := 0; ; i++ {
		_, status := h.Step(NoHorizon())
		if status == Quiescent {
			if h.State()[x] >= 2 {
				t.Fatalf("quiescent with live dependent (x=%d)", h.State()[x])
			}
			break
		}
		if status != Fired {
			t.Fatalf("step %d: status %v", i, status)
		}
		if h.State()[x] >= 2 && h.FastEvents() != 0 {
			t.Fatalf("relay propagated analytically while its dependent was live")
		}
		if i > 10000 {
			t.Fatal("network failed to drain")
		}
	}
	// Drain x below the halving threshold: the relay must re-engage.
	st := h.State().Clone()
	st.Set(net.MustSpecies("x"), 1)
	h.Reset(st, 0)
	if _, status := h.Step(50); status != Horizon {
		t.Fatal("expected horizon clamp with only relay flux left")
	}
	if h.FastEvents() == 0 {
		t.Fatal("relay did not re-engage once the dependent was blocked")
	}
}

// TestHybridZeroRateSinkNoPanic: a zero-rate sink can never fire, so it
// must not form a relay — the propagator would divide by Mu 0 and
// hand rng.Binomial a NaN survival probability.
func TestHybridZeroRateSinkNoPanic(t *testing.T) {
	net := chem.MustParseNetwork(`
b = 1
b -> b + a @ 5
a -> 0 @ 0
`)
	h := NewHybrid(net, nil, rng.New(1))
	if len(h.Partition().Relays) != 0 {
		t.Fatalf("zero-rate sink must not form a relay: %+v", h.Partition().Relays)
	}
	for i := 0; i < 100; i++ {
		if _, status := h.Step(NoHorizon()); status != Fired {
			t.Fatalf("status %v", status)
		}
	}
}

// TestHybridDeterministicGivenSeed: identical seeds must reproduce the
// identical trajectory, like every engine in the package.
func TestHybridDeterministicGivenSeed(t *testing.T) {
	net := miniRaceNet()
	run := func() ([]int, []float64) {
		h := NewHybrid(net, miniProtected(net), rng.New(99))
		var rs []int
		var ts []float64
		for i := 0; i < 40; i++ {
			r, status := h.Step(NoHorizon())
			if status != Fired {
				break
			}
			rs = append(rs, r)
			ts = append(ts, h.Time())
		}
		return rs, ts
	}
	r1, t1 := run()
	r2, t2 := run()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] || t1[i] != t2[i] {
			t.Fatalf("trajectories diverge at step %d", i)
		}
	}
}

// TestHybridStepZeroAllocs: the hot path must not allocate after
// construction (engine-reuse Monte Carlo).
func TestHybridStepZeroAllocs(t *testing.T) {
	net := miniRaceNet()
	h := NewHybrid(net, miniProtected(net), rng.New(401))
	st0 := net.InitialState()
	for i := 0; i < 5; i++ {
		h.Step(NoHorizon())
	}
	allocs := testing.AllocsPerRun(200, func() {
		h.Reset(st0, 0)
		for i := 0; i < 4; i++ {
			h.Step(NoHorizon())
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Step allocates %.1f times per trial, want 0", allocs)
	}
}

// TestHybridStepsNonRelayChannelsExactly: a high-copy pure-conversion
// channel is no relay (its sink has a product), so the hybrid batches
// nothing and steps every conversion exactly — landing on the analytic
// moments: x(t) ~ Binomial(x0, e^{-kt}).
func TestHybridStepsNonRelayChannelsExactly(t *testing.T) {
	net := chem.MustParseNetwork(`
x = 50000
x -> y @ 1
`)
	h := NewHybrid(net, nil, rng.New(419))
	if len(h.Partition().Relays) != 0 {
		t.Fatalf("conversion must not be a relay: %+v", h.Partition().Relays)
	}
	const horizon = 0.5
	pKeep := math.Exp(-horizon)
	wantMean := 50000 * pKeep
	wantVar := 50000 * pKeep * (1 - pKeep)
	const trials = 300
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		h.Reset(net.InitialState(), 0)
		for {
			if _, status := h.Step(horizon); status != Fired {
				break
			}
		}
		v := float64(h.State()[0])
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-wantMean)/wantMean > 0.01 {
		t.Errorf("mean = %.0f, want ~%.0f", mean, wantMean)
	}
	if variance < wantVar/3 || variance > 3*wantVar {
		t.Errorf("variance = %.0f, want within 3x of %.0f", variance, wantVar)
	}
	if n := h.FastEvents(); n != 0 {
		t.Errorf("%d fast events without a relay, want 0", n)
	}
}

// runHybrid steps h to horizon and returns the final state.
func runHybrid(h *Hybrid, horizon float64) chem.State {
	for {
		if _, status := h.Step(horizon); status != Fired {
			return h.State()
		}
	}
}

// TestTauLeapHybridConvergenceToAnalyticMoments: on a birth-death network
// with known analytic moments — immigration at λ, per-molecule death at μ,
// started at the fixed point λ/μ — the law at the horizon is (very nearly)
// Poisson(λ/μ): mean = var = λ/μ. The hybrid recognises the pair as a
// relay and is exact, so at three seeds both moments sit inside Monte Carlo
// noise.
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
	for k := 0; k < 3; k++ {
		seed := uint64(600 + k)
		h := NewHybrid(net, nil, rng.New(seed))
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			h.Reset(net.InitialState(), 0)
			v := float64(runHybrid(h, horizon)[0])
			sum += v
			sumSq += v * v
		}
		hm := sum / trials
		hv := sumSq/trials - hm*hm
		t.Logf("seed %d: hybrid mean %.1f, var %.1f", seed, hm, hv)
		if math.Abs(hm-wantM) > 0.02*wantM {
			t.Errorf("seed %d: hybrid mean %.1f, want ~%g", seed, hm, wantM)
		}
		if hv < wantV/2 || hv > 2*wantV {
			t.Errorf("seed %d: hybrid var %.1f, want ~%.1f (exact relay)", seed, hv, wantV)
		}
	}
}
