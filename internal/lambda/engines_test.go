package lambda

import (
	"testing"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// runEngine characterises one MOI point with a caller-chosen engine on the
// engine-reuse path, mirroring Model.Characterize.
func runEngine(m *Model, moi int64, trials int, seed uint64,
	mk func(gen *rng.PCG) sim.Engine) mc.Result {
	observe := m.Observer(moi)
	return mc.RunWith(mc.Config{Trials: trials, Outcomes: 2, Seed: seed}, mk,
		func(eng sim.Engine) int { return observe(eng).Outcome })
}

// TestDirectOptimizedAgreeInDistribution is the chi-square regression test
// for the OptimizedDirect drift-retry fix: Direct (recompute-everything,
// trivially exact) and OptimizedDirect (incremental propensities, drift
// retries, dependency graph) must produce the same lysis/lysogeny
// distribution on the natural lambda model. The two samples are compared
// with Pearson's chi-square homogeneity test (pooled expected proportions,
// df = (2−1)(2−1) = 1) at significance 0.001, matching the package mc
// convention.
func TestDirectOptimizedAgreeInDistribution(t *testing.T) {
	m, err := NaturalModel(NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	const moi = 5
	dir := runEngine(m, moi, trials, 0xd15c, func(gen *rng.PCG) sim.Engine {
		return sim.NewDirect(m.Net, gen)
	})
	opt := runEngine(m, moi, trials, 0x0421, func(gen *rng.PCG) sim.Engine {
		return sim.NewOptimizedDirect(m.Net, gen)
	})
	if dir.None != 0 || opt.None != 0 {
		t.Fatalf("unresolved trials: direct %d, optimized %d", dir.None, opt.None)
	}

	// Pooled expected proportions under the homogeneity null.
	pooled := make([]float64, 2)
	for i := range pooled {
		pooled[i] = float64(dir.Counts[i]+opt.Counts[i]) / float64(2*trials)
	}
	statDir, err := mc.ChiSquare(dir.Counts, pooled)
	if err != nil {
		t.Fatal(err)
	}
	statOpt, err := mc.ChiSquare(opt.Counts, pooled)
	if err != nil {
		t.Fatal(err)
	}
	stat := statDir + statOpt
	const crit = 10.828 // chi-square df=1 at significance 0.001
	if stat > crit {
		t.Errorf("Direct vs OptimizedDirect distributions differ: chi2 = %.3f > %.3f\ndirect: %v\noptimized: %v",
			stat, crit, dir, opt)
	}
	t.Logf("homogeneity chi2 = %.3f (crit %.3f): direct %v, optimized %v", stat, crit, dir, opt)
}

// TestCharacterizeMatchesPerTrialEngines: the engine-reuse hot path must
// tally exactly what per-trial engines tally — same trial→stream mapping,
// same outcomes, bit for bit. The per-trial engines are built fresh from a
// per-trial factory over the same MOI-dosed kernel Characterize compiles
// (EngineFactoryAt): the reuse-vs-fresh comparison is about engine state
// carrying over between Resets, not about the (deterministic) ordering.
func TestCharacterizeMatchesPerTrialEngines(t *testing.T) {
	m, err := NaturalModel(NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	const trials, moi, seed = 300, 3, uint64(99)
	reused := m.Characterize(moi, trials, seed)
	fresh := mc.RunWith(mc.Config{Trials: trials, Outcomes: 2, Seed: seed},
		func(gen *rng.PCG) *rng.PCG { return gen },
		func(gen *rng.PCG) int {
			return m.Observer(moi)(m.EngineFactoryAt(moi)(gen)).Outcome
		})
	if reused.Counts[0] != fresh.Counts[0] || reused.Counts[1] != fresh.Counts[1] || reused.None != fresh.None {
		t.Fatalf("engine reuse changed results: reused %v, fresh %v", reused, fresh)
	}
}
