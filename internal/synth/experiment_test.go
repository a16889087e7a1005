package synth

import (
	"testing"

	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

func TestRunRaceRecordsFirstInitializer(t *testing.T) {
	mod, err := Figure3Spec(1000).Build()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 50; seed++ {
		r := RunRace(mod, Figure3Threshold, 2_000_000, rng.New(seed))
		if r.FirstInit < 0 || r.FirstInit > 2 {
			t.Fatalf("FirstInit = %d", r.FirstInit)
		}
		if r.Winner < 0 || r.Winner > 2 {
			t.Fatalf("Winner = %d (race must resolve at γ=1000)", r.Winner)
		}
		if r.Steps <= 0 {
			t.Fatalf("Steps = %d", r.Steps)
		}
	}
}

func TestRaceResultError(t *testing.T) {
	cases := []struct {
		r    RaceResult
		want bool
	}{
		{RaceResult{FirstInit: 0, Winner: 0}, false},
		{RaceResult{FirstInit: 0, Winner: 1}, true},
		{RaceResult{FirstInit: -1, Winner: 1}, true},
		{RaceResult{FirstInit: 2, Winner: -1}, true},
	}
	for _, c := range cases {
		if c.r.Error() != c.want {
			t.Errorf("Error(%+v) = %v", c.r, c.r.Error())
		}
	}
}

func TestFigure3ErrorDecreasesWithGamma(t *testing.T) {
	// The headline claim of Figure 3: error shrinks as γ grows. Compare
	// γ=10 against γ=10⁴ with enough trials to separate them decisively.
	lo, err := Figure3ErrorRate(10, 1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Figure3ErrorRate(1e4, 1500, 32)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0.02 {
		t.Errorf("error at γ=10 = %v, expected substantial (paper: ≈10%%)", lo)
	}
	if hi > lo/3 {
		t.Errorf("error at γ=1e4 (%v) not well below γ=10 (%v)", hi, lo)
	}
	if hi > 0.02 {
		t.Errorf("error at γ=1e4 = %v, expected < 2%%", hi)
	}
	t.Logf("Figure 3 spot check: err(γ=10)=%.4f err(γ=1e4)=%.4f", lo, hi)
}

// TestFigure3HybridMatchesDirect: the Figure 3 error statistic must be
// homogeneous between the hybrid engine and Direct across the sweep's γ
// range (pooled two-sample chi-square). The module has no relay subsystem,
// so the hybrid's partition must quietly reduce to exact stepping here —
// this is the "does no harm off the hot path" half of the equivalence
// claim.
func TestFigure3HybridMatchesDirect(t *testing.T) {
	gammas := []float64{10, 1e3, 1e5}
	trials := 2000
	if testing.Short() {
		gammas = []float64{10, 1e3}
		trials = 600
	}
	crit := map[int]float64{2: 9.210, 3: 11.345}[len(gammas)]
	totalStat := 0.0
	for i, gamma := range gammas {
		dir, err := Figure3ErrorRateWith(gamma, trials, uint64(900+i), sim.EngineDirect)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := Figure3ErrorRateWith(gamma, trials, uint64(950+i), sim.EngineHybrid)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(trials)
		dErr, hErr := dir*n, hyb*n
		// Pooled 2x2 homogeneity chi-square, df = 1. Low-γ points keep every
		// expected cell above 5 at these trial counts; γ=1e5 has essentially
		// zero errors in both samples, which contributes ~0 to the statistic,
		// so guard the degenerate cell instead of failing the validity rule.
		pooledErr := (dErr + hErr) / (2 * n)
		if pooledErr*n < 5 {
			if dErr+hErr > 20 {
				t.Errorf("γ=%g: error counts %v vs %v with ~zero pooled rate", gamma, dErr, hErr)
			}
			continue
		}
		stat := 0.0
		for _, c := range []float64{dErr, hErr} {
			for _, cell := range []struct{ obs, exp float64 }{
				{c, pooledErr * n},
				{n - c, (1 - pooledErr) * n},
			} {
				d := cell.obs - cell.exp
				stat += d * d / cell.exp
			}
		}
		totalStat += stat
		t.Logf("γ=%g: direct %.4f hybrid %.4f (chi2 %.3f)", gamma, dir, hyb, stat)
	}
	if totalStat > crit {
		t.Errorf("pooled hybrid-vs-Direct chi2 over the γ sweep = %.2f > %.2f (p < 0.01)",
			totalStat, crit)
	}
}

// TestFigure3HybridBitwiseWhenNotLeaping: on the Figure 3 module the
// partition finds no relay and never engages leaping, so the hybrid
// consumes randomness exactly like Direct (one Exp, one uniform per event)
// and must reproduce Direct's trial outcomes bit for bit on the same seed
// stream — the strongest possible form of "does no harm".
func TestFigure3HybridBitwiseWhenNotLeaping(t *testing.T) {
	mod, err := Figure3Spec(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	protected := mod.ProtectedSpecies()
	classify := Figure3Classifier(mod)
	const trials = 400
	const seed = 777
	dirGen := rng.NewStream(seed, 0)
	hybGen := rng.NewStream(seed, 0)
	dir := sim.NewDirect(mod.Net, dirGen)
	hyb := sim.NewHybrid(mod.Net, protected, hybGen)
	for i := 0; i < trials; i++ {
		dirGen.Reseed(seed, uint64(i))
		hybGen.Reseed(seed, uint64(i))
		d := classify(dir)
		h := classify(hyb)
		if d != h {
			t.Fatalf("trial %d: direct outcome %d, hybrid outcome %d", i, d, h)
		}
		if hyb.FastEvents() != 0 {
			t.Fatalf("trial %d: hybrid batched %d events on a model with no batching opportunity",
				i, hyb.FastEvents())
		}
	}
}

func TestFigure3SpecShape(t *testing.T) {
	spec := Figure3Spec(100)
	if len(spec.Outcomes) != 3 {
		t.Fatal("Figure 3 uses three outcomes")
	}
	for i, o := range spec.Outcomes {
		if o.Weight != 100 {
			t.Errorf("outcome %d weight = %d, want 100", i, o.Weight)
		}
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := mod.Probabilities()
	for _, pi := range p {
		if pi != 1.0/3 {
			t.Fatalf("Probabilities = %v, want uniform thirds", p)
		}
	}
}

// TestFigure3TrialZeroAllocs: on a reused engine a Figure 3 trial body —
// classifier or observer — allocates nothing, so the mc.RunWith worker
// loops behind the γ sweep run allocation-free per trial. Both the exact
// default engine and the hybrid are pinned.
func TestFigure3TrialZeroAllocs(t *testing.T) {
	mod, err := Figure3Spec(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.NewStream(5, 0)
	engines := []struct {
		name string
		eng  sim.Engine
	}{
		{"optimized", sim.NewOptimizedDirect(mod.Net, gen)},
		{"hybrid", sim.NewHybrid(mod.Net, mod.ProtectedSpecies(), gen)},
	}
	classify := Figure3Classifier(mod)
	observe := Figure3Observer(mod)
	for _, e := range engines {
		var trial uint64
		classify(e.eng) // warm up
		if n := testing.AllocsPerRun(50, func() {
			trial++
			gen.Reseed(5, trial)
			classify(e.eng)
		}); n != 0 {
			t.Errorf("%s: Figure3Classifier allocates %.1f times per trial, want 0", e.name, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			trial++
			gen.Reseed(5, trial)
			observe(e.eng)
		}); n != 0 {
			t.Errorf("%s: Figure3Observer allocates %.1f times per trial, want 0", e.name, n)
		}
	}
}
