package sim

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// chainBins bins a sample of integer counts at mean + z·sd for z in
// [-2, 2] step 0.5 (10 cells including both tails).
func chainBins(mean, sd float64) []int64 {
	var bounds []int64
	for z := -2.0; z <= 2.01; z += 0.5 {
		bounds = append(bounds, int64(math.Ceil(mean+z*sd)))
	}
	return bounds
}

func binOf(bounds []int64, v int64) int {
	cell := 0
	for cell < len(bounds) && v >= bounds[cell] {
		cell++
	}
	return cell
}

// homogeneityChi2 computes the pooled two-sample chi-square between equal-
// size samples x and y, merging sparse cells (pooled total < 10) into their
// right neighbour, and returns the statistic with an approximate critical
// value: df + 4.5·√(2·df), the normal tail approximation at roughly
// significance 3e-6 — loose enough to never flake on sampling noise, tight
// enough that a wrong transient law (which shifts whole cells) fails hard.
func homogeneityChi2(x, y []int64) (stat, crit float64) {
	var mx, my []int64
	var ax, ay int64
	for i := range x {
		ax += x[i]
		ay += y[i]
		if ax+ay >= 10 {
			mx = append(mx, ax)
			my = append(my, ay)
			ax, ay = 0, 0
		}
	}
	if ax+ay > 0 && len(mx) > 0 {
		mx[len(mx)-1] += ax
		my[len(my)-1] += ay
	}
	var nx, ny int64
	for i := range mx {
		nx += mx[i]
		ny += my[i]
	}
	for i := range mx {
		pooled := float64(mx[i]+my[i]) / float64(nx+ny)
		for _, c := range []struct {
			obs float64
			n   int64
		}{{float64(mx[i]), nx}, {float64(my[i]), ny}} {
			expected := pooled * float64(c.n)
			d := c.obs - expected
			stat += d * d / expected
		}
	}
	df := float64(len(mx) - 1)
	return stat, df + 4.5*math.Sqrt(2*df)
}

// TestHybridChainHorizonMarginal is the law pin for the conversion-chain
// propagator: on a pure chain network the hybrid advances to a finite
// horizon entirely analytically (one Step, zero exact firings), and the
// resulting marginals of both chain species must match Direct's exact
// simulation — chi-square homogeneity on binned end counts. Two parameter
// sets cover both branches of the closed form: well-separated exit hazards
// and exactly equal ones (the μa ≈ μb limit).
func TestHybridChainHorizonMarginal(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		horizon float64
		meanA   float64 // rough analytic means for bin placement only
		meanB   float64
	}{
		{"distinct hazards", `
a = 25
b = 10
0 -> a @ 12
a -> b @ 1.5
a -> 0 @ 0.5
b -> 0 @ 0.8
0 -> b @ 2
`, 1.5, 6.9, 18.6},
		{"equal hazards", `
a = 20
0 -> a @ 12
a -> b @ 0.9
a -> 0 @ 0.3
b -> 0 @ 1.2
`, 1.5, 10.3, 8.5},
	}
	const trials = 4000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := chem.MustParseNetwork(tc.src)
			sa, sb := net.MustSpecies("a"), net.MustSpecies("b")
			hyb := NewHybrid(net, nil, rng.NewStream(31, 0))
			if rs := hyb.Partition().Relays; len(rs) != 1 || rs[0].B != sb {
				t.Fatalf("relays = %+v, want one two-stage relay a → b", rs)
			}
			binsA := chainBins(tc.meanA, math.Sqrt(tc.meanA))
			binsB := chainBins(tc.meanB, math.Sqrt(tc.meanB))
			hybA := make([]int64, len(binsA)+1)
			hybB := make([]int64, len(binsB)+1)
			dirA := make([]int64, len(binsA)+1)
			dirB := make([]int64, len(binsB)+1)

			hybGen := rng.NewStream(31, 0)
			for i := 0; i < trials; i++ {
				hybGen.Reseed(31, uint64(i))
				hyb.Reset(net.InitialState(), 0)
				if _, status := hyb.Step(tc.horizon); status != Horizon {
					t.Fatalf("trial %d: status %v, want Horizon (pure chain)", i, status)
				}
				if hyb.Time() != tc.horizon {
					t.Fatalf("trial %d: time %v, want clamp to %v", i, hyb.Time(), tc.horizon)
				}
				hybA[binOf(binsA, hyb.State()[sa])]++
				hybB[binOf(binsB, hyb.State()[sb])]++
			}
			if hyb.FastEvents() == 0 {
				t.Fatal("chain propagator tallied no fast events")
			}
			dirGen := rng.NewStream(32, 0)
			dir := NewDirect(net, dirGen)
			for i := 0; i < trials; i++ {
				dirGen.Reseed(32, uint64(i))
				dir.Reset(net.InitialState(), 0)
				Run(dir, RunOptions{MaxTime: tc.horizon})
				dirA[binOf(binsA, dir.State()[sa])]++
				dirB[binOf(binsB, dir.State()[sb])]++
			}
			for _, m := range []struct {
				name     string
				hyb, dir []int64
			}{{"a", hybA, dirA}, {"b", hybB, dirB}} {
				stat, crit := homogeneityChi2(m.hyb, m.dir)
				if stat > crit {
					t.Errorf("%s marginal differs from Direct: chi2 %.2f > %.2f\nhybrid %v\ndirect %v",
						m.name, stat, crit, m.hyb, m.dir)
				} else {
					t.Logf("%s marginal chi2 = %.2f (crit %.2f)", m.name, stat, crit)
				}
			}
		})
	}
}

// chainRaceNet is miniRaceNet with the relay pair replaced by a conversion
// chain (clocked production of a, competing conversion a → c and sink,
// first-order c drain): the chain burns almost all events while the slow
// channels decide the observable.
func chainRaceNet() *chem.Network {
	return chem.MustParseNetwork(`
src = 1
e1 = 60
e2 = 40
f1 = 10
f2 = 10
src -> src + a @ 0.0001
a -> c @ 8
a -> 0 @ 2
c -> 0 @ 10
e1 -> d1 @ 1e-9
e2 -> d2 @ 1e-9
d1 + f1 -> d1 + o1 @ 1e-9
d2 + f2 -> d2 + o2 @ 1e-9
`)
}

// TestHybridChainMatchesDirectOnRace: with a conversion chain as the event
// burner, the hybrid must reproduce Direct's winner distribution on the
// miniature race (chi-square homogeneity, df = 1, significance 0.001)
// while batching nearly all events through the chain propagator.
func TestHybridChainMatchesDirectOnRace(t *testing.T) {
	net := chainRaceNet()
	o1, o2 := net.MustSpecies("o1"), net.MustSpecies("o2")
	protected := []chem.Species{o1, o2}
	const threshold = 5
	const trials = 1000
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
	hybGen, dirGen := rng.NewStream(11, 0), rng.NewStream(12, 0)
	hyb := NewHybrid(net, protected, hybGen)
	if rs := hyb.Partition().Relays; len(rs) != 1 || rs[0].B != net.MustSpecies("c") {
		t.Fatalf("relays = %+v, want one two-stage relay (a → c)", rs)
	}
	dir := NewDirect(net, dirGen)
	var dirCounts, hybCounts [2]int64
	var hybFastEvents int64
	for i := 0; i < trials; i++ {
		hybGen.Reseed(11, uint64(i))
		hyb.Reset(net.InitialState(), 0)
		if w := race(hyb); w >= 0 {
			hybCounts[w]++
		} else {
			t.Fatal("hybrid trial unresolved")
		}
		hybFastEvents += hyb.FastEvents()
		dirGen.Reseed(12, uint64(i))
		dir.Reset(net.InitialState(), 0)
		if w := race(dir); w >= 0 {
			dirCounts[w]++
		} else {
			t.Fatal("direct trial unresolved")
		}
	}
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
	if hybFastEvents < 500*trials {
		t.Errorf("hybrid batched only %d fast events over %d trials; chain propagation seems inactive",
			hybFastEvents, trials)
	}
}

// TestHybridChainDependentGates: a catalytic reader of the chain species
// must force exact stepping while it can fire — the chain is analytic only
// while the dependent is blocked by a missing non-analytic reactant. The
// consuming dependent (2 x + c → y + c) drains x; once x < 2 it blocks and
// the chain re-engages, mirroring TestHybridDependentGatesRelay.
func TestHybridChainDependentGates(t *testing.T) {
	net := chem.MustParseNetwork(`
x = 40
0 -> a @ 4
a -> c @ 2
c -> 0 @ 1
2 x + c -> y + c @ 0.5
`)
	h := NewHybrid(net, nil, rng.New(97))
	if rs := h.Partition().Relays; len(rs) != 1 || rs[0].B != net.MustSpecies("c") {
		t.Fatalf("relays = %+v, want one two-stage relay (a → c)", rs)
	}
	if len(h.Partition().Relays[0].Dependents) != 1 {
		t.Fatalf("dependents = %v, want the catalytic consumer", h.Partition().Relays[0].Dependents)
	}
	x := net.MustSpecies("x")
	for i := 0; ; i++ {
		if h.State()[x] < 2 {
			break // dependent just blocked
		}
		_, status := h.Step(NoHorizon())
		if status != Fired {
			t.Fatalf("step %d: status %v, want Fired while dependent is live", i, status)
		}
		if h.State()[x] >= 2 && h.FastEvents() != 0 {
			t.Fatal("chain propagated analytically while its dependent was live")
		}
		if i > 50000 {
			t.Fatal("dependent failed to drain x")
		}
	}
	// x < 2 blocks the dependent: only chain flux remains, so a finite
	// horizon clamps with the chain advanced analytically.
	if _, status := h.Step(h.Time() + 50); status != Horizon {
		t.Fatal("expected horizon clamp with only chain flux left")
	}
	if h.FastEvents() == 0 {
		t.Fatal("chain did not re-engage once the dependent was blocked")
	}
}
