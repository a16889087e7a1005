package synth

import (
	"math"
	"strings"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// stepwiseRace is the reference race RunRaceWith is checked against: every
// event through sim.Run, which draws a holding time per event on every
// engine, stopped by ThresholdPredicate, with an OnEvent observer that
// records the first initializing firing.
func stepwiseRace(mod *StochasticModule, eng sim.Engine, threshold, maxSteps int64) RaceResult {
	eng.Reset(mod.initial, 0)
	first := -1
	res := sim.Run(eng, sim.RunOptions{
		MaxSteps: maxSteps,
		StopWhen: mod.ThresholdPredicate(threshold),
		OnEvent: func(reaction int, _ chem.State, _ float64) {
			if first < 0 {
				first = mod.InitializingOutcome(reaction)
			}
		},
	})
	winner := -1
	if res.Reason == sim.StopPredicate {
		winner = mod.Winner(eng.State(), threshold)
	}
	return RaceResult{FirstInit: first, Winner: winner, Steps: res.Steps}
}

// stepwiseObserver is Figure3Observer over stepwiseRace.
func stepwiseObserver(mod *StochasticModule) func(eng sim.Engine) mc.Obs {
	return func(eng sim.Engine) mc.Obs {
		r := stepwiseRace(mod, eng, Figure3Threshold, Figure3MaxSteps)
		outcome := 0
		if r.Error() {
			outcome = 1
		}
		return mc.Obs{Value: float64(r.Steps), IValue: r.Steps, Outcome: outcome, Steps: r.Steps}
	}
}

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
		dir, err := Figure3Tally(gamma, trials, uint64(900+i), sim.EngineDirect)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := Figure3Tally(gamma, trials, uint64(950+i), sim.EngineHybrid)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(trials)
		dErr, hErr := float64(dir.Counts[1]), float64(hyb.Counts[1])
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
		t.Logf("γ=%g: direct %.4f hybrid %.4f (chi2 %.3f)", gamma, dir.Fraction(1), hyb.Fraction(1), stat)
	}
	if totalStat > crit {
		t.Errorf("pooled hybrid-vs-Direct chi2 over the γ sweep = %.2f > %.2f (p < 0.01)",
			totalStat, crit)
	}
}

// TestFigure3HybridBitwiseWhenNotLeaping: on the Figure 3 module the
// partition finds no relay and never engages leaping, so the hybrid
// consumes randomness exactly like Direct (one Exp, one uniform per event)
// and must reproduce Direct's stepwise trial outcomes bit for bit on the
// same seed stream — the strongest possible form of "does no harm". Both
// engines run stepwiseRace, since Direct's own RunRaceWith races the jump
// chain. The hybrid's RunRaceWith, the race behind Figure3Classifier and
// the synth/fig3-*-hybrid sweeps, must match that stepwise race trial for
// trial: splitting off the first step changes none of its draws.
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
		d := stepwiseRace(mod, dir, Figure3Threshold, Figure3MaxSteps)
		h := stepwiseRace(mod, hyb, Figure3Threshold, Figure3MaxSteps)
		if d.Error() != h.Error() {
			t.Fatalf("trial %d: direct error %v, hybrid error %v", i, d.Error(), h.Error())
		}
		if hyb.FastEvents() != 0 {
			t.Fatalf("trial %d: hybrid batched %d events on a model with no batching opportunity",
				i, hyb.FastEvents())
		}
		hybGen.Reseed(seed, uint64(i))
		if got := RunRaceWith(mod, hyb, Figure3Threshold, Figure3MaxSteps); got != h {
			t.Fatalf("trial %d: hybrid RunRaceWith %+v, stepwise race %+v", i, got, h)
		}
		want := 0
		if h.Error() {
			want = 1
		}
		hybGen.Reseed(seed, uint64(i))
		if got := classify(hyb); got != want {
			t.Fatalf("trial %d: hybrid Figure3Classifier %d, stepwise race %d", i, got, want)
		}
	}
}

// TestFigure3JumpChainMatchesStepwise: on OptimizedDirect, Figure3Observer
// races the embedded jump chain and reads the first initializing outcome
// off the catalysts after one step; stepwiseRace draws every holding time
// and watches every event. The two draw different streams, so they are
// compared in distribution, on disjoint seeds: the error fraction and the
// mean race length must agree within 4 standard errors at every γ.
func TestFigure3JumpChainMatchesStepwise(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 4000
	}
	n := float64(trials)
	hist := mc.HistConfig{Lo: 0, Width: 64, Bins: 512}
	for i, gamma := range []float64{1, 10, 100} {
		mod, err := Figure3Spec(gamma).Build()
		if err != nil {
			t.Fatal(err)
		}
		comp := chem.Compile(mod.Net)
		newEngine := func(gen *rng.PCG) sim.Engine { return sim.NewOptimizedDirectCompiled(comp, gen) }
		fused := mc.RunDistWith(mc.Config{Trials: trials, Outcomes: 2, Seed: 1700 + uint64(i)},
			hist, newEngine, Figure3Observer(mod))
		step := mc.RunDistWith(mc.Config{Trials: trials, Outcomes: 2, Seed: 1800 + uint64(i)},
			hist, newEngine, stepwiseObserver(mod))
		pf, ps := fused.FPT.Proportion(1).Estimate(), step.FPT.Proportion(1).Estimate()
		pool := (pf + ps) / 2
		zErr := 0.0
		if pool > 0 && pool < 1 {
			zErr = (pf - ps) / math.Sqrt(pool*(1-pool)*2/n)
		}
		mf, ms := fused.Moments.Summary(), step.Moments.Summary()
		zSteps := (mf.Mean - ms.Mean) / math.Sqrt(mf.Var/n+ms.Var/n)
		t.Logf("γ=%g: error %.4f vs %.4f (z=%.2f), mean steps %.2f vs %.2f (z=%.2f)",
			gamma, pf, ps, zErr, mf.Mean, ms.Mean, zSteps)
		if math.Abs(zErr) >= 4 {
			t.Errorf("γ=%g: jump-chain error fraction %.4f vs stepwise %.4f (z=%.2f)", gamma, pf, ps, zErr)
		}
		if math.Abs(zSteps) >= 4 || math.IsNaN(zSteps) {
			t.Errorf("γ=%g: jump-chain mean steps %.3f vs stepwise %.3f (z=%.2f)", gamma, mf.Mean, ms.Mean, zSteps)
		}
	}
}

// TestRunRaceMultiOutputOutcome: an outcome with two outputs is declared
// when their sum reaches the threshold, which no single-species threshold
// expresses, so RunRaceWith races such a module through sim.Run and
// ThresholdPredicate. Each trial must stop at the first event that brings
// some outcome's output sum to the threshold, with FirstInit set; the
// engines draw exactly the stepwise race's stream.
func TestRunRaceMultiOutputOutcome(t *testing.T) {
	mod, err := StochasticSpec{
		Outcomes: []Outcome{
			{Weight: 50, Outputs: []Output{
				{Species: "a1", Food: "fa1", FoodQuantity: 40},
				{Species: "a2", Food: "fa2", FoodQuantity: 40},
			}},
			{Weight: 50},
		},
		Gamma: 100,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 10
	const trials = 200
	comp := chem.Compile(mod.Net)
	for _, kind := range []sim.EngineKind{sim.EngineOptimizedDirect, sim.EngineDirect} {
		gen := rng.NewStream(41, 0)
		eng := sim.MustEngineOfKindCompiled(kind, comp, nil, gen)
		wins := make([]int, 2)
		split := 0 // trials won by outcome 0 with neither output alone at the threshold
		for i := 0; i < trials; i++ {
			gen.Reseed(41, uint64(i))
			r := RunRaceWith(mod, eng, threshold, 1_000_000)
			st := eng.State()
			if r.FirstInit < 0 || r.Winner < 0 {
				t.Fatalf("%s trial %d: %+v, want FirstInit and Winner set", kind, i, r)
			}
			// Each working firing adds one output molecule, so the race
			// stops with the winner's sum at the threshold and every
			// other sum below it.
			for j := range mod.Outputs {
				sum := mod.OutputTotal(st, j)
				if j == r.Winner && sum != threshold || j != r.Winner && sum >= threshold {
					t.Fatalf("%s trial %d: outcome %d output sum %d with winner %d, threshold %d",
						kind, i, j, sum, r.Winner, threshold)
				}
			}
			wins[r.Winner]++
			if r.Winner == 0 && st[mod.Outputs[0][0]] < threshold && st[mod.Outputs[0][1]] < threshold {
				split++
			}
			gen.Reseed(41, uint64(i))
			if want := stepwiseRace(mod, eng, threshold, 1_000_000); r != want {
				t.Fatalf("%s trial %d: RunRaceWith %+v, stepwise race %+v", kind, i, r, want)
			}
		}
		if wins[0] == 0 || wins[1] == 0 || split == 0 {
			t.Fatalf("%s: wins %v, %d won on a split sum; want both outcomes and split sums", kind, wins, split)
		}
	}
}

// TestBuildRejectsNonzeroCatalyst: RunRaceWith reads the first
// initializing outcome off the catalysts, so Build refuses a spec whose
// food would give a catalyst a nonzero initial count.
func TestBuildRejectsNonzeroCatalyst(t *testing.T) {
	_, err := StochasticSpec{
		Outcomes: []Outcome{{Weight: 1, Outputs: []Output{{Food: "d2"}}}, {Weight: 1}},
		Gamma:    10,
	}.Build()
	if err == nil || !strings.Contains(err.Error(), "catalyst d2 of outcome 1 starts at 1000") {
		t.Fatalf("Build error = %v, want the catalyst d2 of outcome 1 starting at 1000 refused", err)
	}
}

// TestRunRaceStepBound: maxSteps bounds the whole race, the first step
// included; 1 stops right after the initializing firing.
func TestRunRaceStepBound(t *testing.T) {
	mod, err := Figure3Spec(1000).Build()
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.NewStream(3, 0)
	for _, eng := range []sim.Engine{
		sim.NewOptimizedDirect(mod.Net, gen),
		sim.NewDirect(mod.Net, gen),
		sim.NewFirstReaction(mod.Net, gen),
	} {
		for _, bound := range []int64{1, 2, 50} {
			r := RunRaceWith(mod, eng, Figure3Threshold, bound)
			if r.Steps != bound || r.Winner != -1 || r.FirstInit < 0 {
				t.Errorf("%T maxSteps %d: %+v, want %d steps, no winner, FirstInit set", eng, bound, r, bound)
			}
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
