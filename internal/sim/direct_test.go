package sim

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// engines lists constructors for every engine, for table-driven
// cross-validation. The hybrid runs with nothing protected, so every
// channel is fast-eligible: relays propagate analytically and the rest
// race exactly.
var engines = []struct {
	name string
	mk   func(*chem.Network, *rng.PCG) Engine
}{
	{"direct", func(n *chem.Network, g *rng.PCG) Engine { return NewDirect(n, g) }},
	{"optimized", func(n *chem.Network, g *rng.PCG) Engine { return NewOptimizedDirect(n, g) }},
	{"first-reaction", func(n *chem.Network, g *rng.PCG) Engine { return NewFirstReaction(n, g) }},
	{"hybrid", func(n *chem.Network, g *rng.PCG) Engine { return NewHybrid(n, nil, g) }},
}

func TestEnginesQuiescentOnEmptyState(t *testing.T) {
	net := chem.MustParseNetwork(`a -> b @ 1`)
	for _, e := range engines {
		eng := e.mk(net, rng.New(1))
		eng.Reset(chem.State{0, 0}, 0)
		if _, status := eng.Step(NoHorizon()); status != Quiescent {
			t.Errorf("%s: status = %v, want Quiescent", e.name, status)
		}
	}
}

func TestEnginesSingleConversion(t *testing.T) {
	// a -> b with A0=1 must fire exactly once then quiesce, at an
	// Exp(k)-distributed time.
	net := chem.MustParseNetwork(`
a = 1
a -> b @ 2
`)
	for _, e := range engines {
		eng := e.mk(net, rng.New(7))
		r, status := eng.Step(NoHorizon())
		if status != Fired || r != 0 {
			t.Fatalf("%s: first step = (%d, %v)", e.name, r, status)
		}
		if eng.State()[0] != 0 || eng.State()[1] != 1 {
			t.Fatalf("%s: state after firing = %v", e.name, eng.State())
		}
		if _, status := eng.Step(NoHorizon()); status != Quiescent {
			t.Fatalf("%s: second step status = %v, want Quiescent", e.name, status)
		}
	}
}

func TestEnginesFirstEventTimeDistribution(t *testing.T) {
	// With A0 = 10 and k = 3, the first event time is Exp(30).
	net := chem.MustParseNetwork(`
a = 10
a -> b @ 3
`)
	const trials = 20000
	for _, e := range engines {
		gen := rng.New(11)
		eng := e.mk(net, gen)
		sum := 0.0
		for i := 0; i < trials; i++ {
			eng.Reset(net.InitialState(), 0)
			_, status := eng.Step(NoHorizon())
			if status != Fired {
				t.Fatalf("%s: no event", e.name)
			}
			sum += eng.Time()
		}
		mean := sum / trials
		want := 1.0 / 30
		if math.Abs(mean-want) > 6*want/math.Sqrt(trials) {
			t.Errorf("%s: first-event mean = %v, want ~%v", e.name, mean, want)
		}
	}
}

func TestEnginesRaceProbability(t *testing.T) {
	// a -> b (k=3) races a -> c (k=1) from A0=1: P(b) = 3/4 exactly.
	net := chem.MustParseNetwork(`
a = 1
a -> b @ 3
a -> c @ 1
`)
	const trials = 40000
	for _, e := range engines {
		gen := rng.New(13)
		eng := e.mk(net, gen)
		wins := 0
		for i := 0; i < trials; i++ {
			eng.Reset(net.InitialState(), 0)
			r, status := eng.Step(NoHorizon())
			if status != Fired {
				t.Fatalf("%s: no event", e.name)
			}
			if r == 0 {
				wins++
			}
		}
		p := float64(wins) / trials
		sd := math.Sqrt(0.75 * 0.25 / trials)
		if math.Abs(p-0.75) > 6*sd {
			t.Errorf("%s: P(b) = %v, want 0.75±%v", e.name, p, 6*sd)
		}
	}
}

func TestEnginesExtinctionTimeMean(t *testing.T) {
	// Pure death a -> 0 at rate k from A0=N: mean extinction time is
	// (1/k)·H_N (harmonic number), here k=2, N=20.
	net := chem.MustParseNetwork(`
a = 20
a -> 0 @ 2
`)
	want := 0.0
	for i := 1; i <= 20; i++ {
		want += 1.0 / (2.0 * float64(i))
	}
	const trials = 5000
	for _, e := range engines {
		if e.name == "hybrid" {
			// A pure decay is a relay: the hybrid propagates it
			// analytically, and Step reports no relay firings (a
			// documented contract deviation), so there are no 20 steps
			// to count.
			continue
		}
		gen := rng.New(17)
		eng := e.mk(net, gen)
		sum := 0.0
		for i := 0; i < trials; i++ {
			eng.Reset(net.InitialState(), 0)
			res := Run(eng, RunOptions{})
			if res.Reason != StopQuiescent {
				t.Fatalf("%s: run ended with %v", e.name, res.Reason)
			}
			if res.Steps != 20 {
				t.Fatalf("%s: %d steps to extinction, want 20", e.name, res.Steps)
			}
			sum += res.Time
		}
		mean := sum / trials
		// Variance of extinction time = Σ 1/(k·i)², stderr accordingly.
		variance := 0.0
		for i := 1; i <= 20; i++ {
			variance += 1 / (4 * float64(i) * float64(i))
		}
		tol := 6 * math.Sqrt(variance/trials)
		if math.Abs(mean-want) > tol {
			t.Errorf("%s: extinction mean = %v, want %v±%v", e.name, mean, want, tol)
		}
	}
}

func TestEnginesEquilibriumMean(t *testing.T) {
	// Species 0 at t = 10, against its closed-form mean and sd.
	cases := []struct {
		name     string
		crn      string
		mean, sd float64
	}{
		// Isomerisation a <-> b with rates 2 and 1 and N = 30 total: at
		// stationarity each molecule is independently in state a with
		// probability 1/3, so E[A] = 10 with a binomial sd. t = 10 is ~10
		// relaxation times.
		{"isomerisation", `
a = 30
a -> b @ 2
b -> a @ 1
`, 10, math.Sqrt(30 * (1.0 / 3) * (2.0 / 3))},
		// Immigration-death 0 -> b @ 50, b -> 0 @ 1 from b = 0: b(t) is
		// Poisson with mean 50(1 - e^-t), so its sd is at most sqrt(50).
		// With nothing protected the hybrid propagates this as a relay.
		{"immigration-death", `
0 -> b @ 50
b -> 0 @ 1
`, 50 * (1 - math.Exp(-10)), math.Sqrt(50)},
	}
	const trials = 3000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := chem.MustParseNetwork(c.crn)
			tol := 6 * c.sd / math.Sqrt(trials)
			for _, e := range engines {
				gen := rng.New(19)
				eng := e.mk(net, gen)
				sum := 0.0
				for i := 0; i < trials; i++ {
					eng.Reset(net.InitialState(), 0)
					Run(eng, RunOptions{MaxTime: 10})
					sum += float64(eng.State()[0])
				}
				if mean := sum / trials; math.Abs(mean-c.mean) > tol {
					t.Errorf("%s %s: E[x0](10) = %v, want %v±%v", c.name, e.name, mean, c.mean, tol)
				}
			}
		})
	}
}

func TestEnginesHorizonExact(t *testing.T) {
	// Stepping to a horizon must not fire events beyond it, and stepping
	// again with a later horizon must continue the trajectory.
	net := chem.MustParseNetwork(`
a = 100
a -> b @ 0.001
`)
	for _, e := range engines {
		eng := e.mk(net, rng.New(23))
		_, status := eng.Step(0.0001) // essentially certain: no event this early
		if status != Horizon {
			t.Fatalf("%s: status = %v, want Horizon", e.name, status)
		}
		if eng.Time() != 0.0001 {
			t.Fatalf("%s: time = %v, want clamped to 0.0001", e.name, eng.Time())
		}
		if eng.State()[0] != 100 {
			t.Fatalf("%s: state changed on Horizon", e.name)
		}
		// Must eventually fire with an unlimited horizon.
		if _, status := eng.Step(NoHorizon()); status != Fired {
			t.Fatalf("%s: no event after horizon resume", e.name)
		}
	}
}

func TestEnginesDeterministicGivenSeed(t *testing.T) {
	net := chem.MustParseNetwork(`
a = 50
b = 10
a + b -> 2 b @ 0.1
b -> 0 @ 1
`)
	for _, e := range engines {
		run := func() (int64, float64) {
			eng := e.mk(net, rng.New(31))
			res := Run(eng, RunOptions{MaxSteps: 500})
			return res.Steps, eng.Time()
		}
		s1, t1 := run()
		s2, t2 := run()
		if s1 != s2 || t1 != t2 {
			t.Errorf("%s: same seed diverged: (%d,%v) vs (%d,%v)", e.name, s1, t1, s2, t2)
		}
	}
}

func TestEnginesAgreeOnRaceDistribution(t *testing.T) {
	// The full three-outcome race with reinforcement: all engines must
	// produce statistically identical winner distributions.
	net := chem.MustParseNetwork(`
e1 = 30
e2 = 40
e3 = 30
init1: e1 -> d1 @ 1
init2: e2 -> d2 @ 1
init3: e3 -> d3 @ 1
`)
	const trials = 30000
	d1 := net.MustSpecies("d1")
	d2 := net.MustSpecies("d2")
	probs := make(map[string][3]float64)
	for _, e := range engines {
		gen := rng.New(37)
		eng := e.mk(net, gen)
		var wins [3]int
		for i := 0; i < trials; i++ {
			eng.Reset(net.InitialState(), 0)
			_, status := eng.Step(NoHorizon())
			if status != Fired {
				t.Fatalf("%s: no event", e.name)
			}
			st := eng.State()
			switch {
			case st[d1] == 1:
				wins[0]++
			case st[d2] == 1:
				wins[1]++
			default:
				wins[2]++
			}
		}
		var p [3]float64
		for i, w := range wins {
			p[i] = float64(w) / trials
		}
		probs[e.name] = p
		want := [3]float64{0.3, 0.4, 0.3}
		for i := range p {
			sd := math.Sqrt(want[i] * (1 - want[i]) / trials)
			if math.Abs(p[i]-want[i]) > 6*sd {
				t.Errorf("%s: P(outcome %d) = %v, want %v±%v", e.name, i+1, p[i], want[i], 6*sd)
			}
		}
	}
	t.Logf("winner distributions by engine: %v", probs)
}

func TestResetLengthMismatchPanics(t *testing.T) {
	net := chem.MustParseNetwork(`a -> b @ 1`)
	for _, e := range engines {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Reset with wrong-length state did not panic", e.name)
				}
			}()
			e.mk(net, rng.New(1)).Reset(chem.State{1}, 0)
		}()
	}
}

func TestResetCopiesState(t *testing.T) {
	net := chem.MustParseNetwork(`
a = 5
a -> b @ 1
`)
	for _, e := range engines {
		eng := e.mk(net, rng.New(3))
		mine := chem.State{5, 0}
		eng.Reset(mine, 0)
		eng.Step(NoHorizon())
		if mine[0] != 5 {
			t.Errorf("%s: Reset aliased caller state", e.name)
		}
	}
}
