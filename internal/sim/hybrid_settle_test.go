package sim

import (
	"fmt"
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// settleTrials runs trials trials of net to the horizon on a fresh hybrid
// (protecting protect) and on Direct, with per-trial reseeded streams, and
// returns each engine's end counts of species sp plus the hybrid's summed
// Propagations().
func settleTrials(t *testing.T, net *chem.Network, protect []string, sp chem.Species,
	horizon float64, trials int) (hyb, dir []int64, propagations int64) {
	t.Helper()
	var protected []chem.Species
	for _, name := range protect {
		protected = append(protected, net.MustSpecies(name))
	}
	hybGen, dirGen := rng.NewStream(61, 0), rng.NewStream(62, 0)
	h := NewHybrid(net, protected, hybGen)
	d := NewDirect(net, dirGen)
	for i := 0; i < trials; i++ {
		hybGen.Reseed(61, uint64(i))
		h.Reset(net.InitialState(), 0)
		for {
			if _, status := h.Step(horizon); status != Fired {
				break
			}
		}
		if h.Time() != horizon {
			t.Fatalf("trial %d: hybrid stopped at %v, want the horizon %v", i, h.Time(), horizon)
		}
		hyb = append(hyb, h.State()[sp])
		propagations += h.Propagations()

		dirGen.Reseed(62, uint64(i))
		d.Reset(net.InitialState(), 0)
		Run(d, RunOptions{MaxTime: horizon})
		dir = append(dir, d.State()[sp])
	}
	return hyb, dir, propagations
}

// histogram counts each value of xs in its own cell, values above top
// pooled into the last.
func histogram(xs []int64, top int64) []int64 {
	h := make([]int64, top+1)
	for _, x := range xs {
		h[min(x, top)]++
	}
	return h
}

func sampleMean(xs []int64) (mean, stderr float64) {
	var sum, sumSq float64
	for _, x := range xs {
		sum += float64(x)
		sumSq += float64(x) * float64(x)
	}
	n := float64(len(xs))
	mean = sum / n
	return mean, math.Sqrt((sumSq/n - mean*mean) / n)
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

// TestHybridSettlesAtInflowSwitch pins lazy relay settlement where the
// relay's inflow switches: a slow protected two-state switch (off ⇄ on)
// gates the clock on → on + a, and a drains first-order. The relay stays
// active throughout, so every switch changes its inflow rate and forces a
// settlement of the interval that ran under the old rate. The network is
// linear, so the first-order moment equations close:
//
//	p(t) = E[on(t)] = ρ(1 − e^{−κt}),  κ = k₁ + k₂,  ρ = k₁/κ
//	m(t) = E[a(t)]  = a₀e^{−μt} + λρ[(1 − e^{−μt})/μ − (e^{−κt} − e^{−μt})/(μ − κ)]
//
// E[a(T)] is pinned against m(T) for both engines, and the law of a(T)
// against Direct by chi-square. Settling an interval under the rate that
// follows it credits the off periods with the on rate: the mean moves by
// several times its tolerance. Skipping the settlement at a switch lets
// the final rate stand for the whole trial: the mean barely moves, but
// the law turns bimodal and the chi-square fails.
func TestHybridSettlesAtInflowSwitch(t *testing.T) {
	const (
		k1, k2  = 0.5, 2.0 // off → on, on → off
		lambda  = 30.0     // on → on + a
		mu      = 1.0      // a → 0
		a0      = 10
		horizon = 3.0
	)
	net := chem.MustParseNetwork(fmt.Sprintf(`
off = 1
a = %d
off -> on @ %g
on -> off @ %g
on -> on + a @ %g
a -> 0 @ %g
`, a0, k1, k2, lambda, mu))
	sa := net.MustSpecies("a")
	p := NewHybrid(net, []chem.Species{net.MustSpecies("on")}, rng.New(1)).Partition()
	if len(p.Relays) != 1 || p.Relays[0].A != sa {
		t.Fatalf("partition = %+v, want one relay on a", p.Relays)
	}
	trials := 6000
	if testing.Short() {
		trials = 2000
	}
	hyb, dir, props := settleTrials(t, net, []string{"on"}, sa, horizon, trials)

	kappa := k1 + k2
	rho := k1 / kappa
	eMu, eKappa := math.Exp(-mu*horizon), math.Exp(-kappa*horizon)
	want := a0*eMu + lambda*rho*((1-eMu)/mu-(eKappa-eMu)/(mu-kappa))
	for _, e := range []struct {
		name string
		xs   []int64
	}{{"hybrid", hyb}, {"direct", dir}} {
		mean, se := sampleMean(e.xs)
		if math.Abs(mean-want) > 5*se {
			t.Errorf("%s: E[a(T)] = %.3f ± %.3f, moment equations give %.3f", e.name, mean, se, want)
		} else {
			t.Logf("%s: E[a(T)] = %.3f ± %.3f (moment equations %.3f)", e.name, mean, se, want)
		}
	}
	stat, crit := homogeneityChi2(histogram(hyb, 40), histogram(dir, 40))
	if stat > crit {
		t.Errorf("law of a(T) differs from Direct: chi2 %.2f > %.2f\nhybrid %v\ndirect %v",
			stat, crit, histogram(hyb, 40), histogram(dir, 40))
	} else {
		t.Logf("a(T) chi2 = %.2f (crit %.2f); %.2f propagations per trial",
			stat, crit, float64(props)/float64(trials))
	}
	if props < int64(trials) {
		t.Errorf("%d propagations over %d trials: the relay was never settled", props, trials)
	}
}

// TestHybridSettlesAtGatingFlip pins lazy relay settlement across a gating
// flip: the relay a (clock b → b + a, drain a → ∅) starts active because
// its catalytic dependent h + x + a → h + a + c lacks h. A slow g → h
// unblocks the dependent mid-trial, the relay turns inactive, and from
// then on its count drives the dependent, which feeds the protected y.
// The interval before the flip must be settled under the relay's active
// law; settling it as inactive leaves a at its initial zero when the
// dependent unblocks, which slows x's depletion and shifts y(T) — the
// chi-square against Direct fails.
func TestHybridSettlesAtGatingFlip(t *testing.T) {
	net := chem.MustParseNetwork(`
b = 1
g = 1
x = 30
b -> b + a @ 20
a -> 0 @ 1
g -> h @ 0.5
h + x + a -> h + a + c @ 0.05
c -> y @ 2
`)
	sy := net.MustSpecies("y")
	p := NewHybrid(net, []chem.Species{sy}, rng.New(1)).Partition()
	if len(p.Relays) != 1 || len(p.Relays[0].Dependents) != 1 {
		t.Fatalf("partition = %+v, want one relay on a with the catalytic dependent", p.Relays)
	}
	const horizon = 4.0
	trials := 6000
	if testing.Short() {
		trials = 2000
	}
	hyb, dir, props := settleTrials(t, net, []string{"y"}, sy, horizon, trials)
	stat, crit := homogeneityChi2(histogram(hyb, 30), histogram(dir, 30))
	if stat > crit {
		t.Errorf("law of y(T) differs from Direct: chi2 %.2f > %.2f\nhybrid %v\ndirect %v",
			stat, crit, histogram(hyb, 30), histogram(dir, 30))
	} else {
		hm, _ := sampleMean(hyb)
		dm, _ := sampleMean(dir)
		t.Logf("y(T) chi2 = %.2f (crit %.2f); mean %.2f vs Direct %.2f; %.2f propagations per trial",
			stat, crit, hm, dm, float64(props)/float64(trials))
	}
	if props < int64(trials) {
		t.Errorf("%d propagations over %d trials: the relay was never settled", props, trials)
	}
}
