package sim

import (
	"math"
	"strings"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
)

// directOn returns the engine factory that builds Direct engines over net.
func directOn(net *chem.Network) func(*rng.PCG) Engine {
	return func(g *rng.PCG) Engine { return NewDirect(net, g) }
}

func TestEnsembleStatsDecay(t *testing.T) {
	// Pure decay: E[A(t)] = A0·e^{−kt}, Var[A(t)] = A0·e^{−kt}(1−e^{−kt}).
	net := chem.MustParseNetwork(`
a = 200
a -> 0 @ 1
`)
	grid := []float64{0.25, 0.5, 1, 2}
	const trials = 3000
	e := EnsembleStats(net, grid, mc.Config{Trials: trials, Seed: 9}, directOn(net))
	a := net.MustSpecies("a")
	for k, tm := range grid {
		p := math.Exp(-tm)
		wantMean := 200 * p
		wantVar := 200 * p * (1 - p)
		se := math.Sqrt(wantVar / trials)
		if math.Abs(e.Mean[k][a]-wantMean) > 6*se {
			t.Errorf("t=%v: mean %v, want %v±%v", tm, e.Mean[k][a], wantMean, 6*se)
		}
		// Variance of the sample variance ~ 2σ⁴/n: loose 6σ bound.
		varTol := 6 * math.Sqrt(2/float64(trials)) * wantVar
		if math.Abs(e.Var[k][a]-wantVar) > varTol+1 {
			t.Errorf("t=%v: var %v, want %v±%v", tm, e.Var[k][a], wantVar, varTol)
		}
		if se2 := e.StdErr(k, a); math.Abs(se2-se) > se {
			t.Errorf("t=%v: stderr %v, want ≈%v", tm, se2, se)
		}
	}
}

func TestEnsembleStatsExactAtGridPoints(t *testing.T) {
	// The horizon-stepped sampling must be exact: at t beyond extinction
	// the mean is exactly 0 and the variance 0.
	net := chem.MustParseNetwork(`
a = 3
a -> 0 @ 100
`)
	e := EnsembleStats(net, []float64{10}, mc.Config{Trials: 200, Seed: 4}, directOn(net))
	if e.Mean[0][0] != 0 || e.Var[0][0] != 0 {
		t.Fatalf("post-extinction mean/var = %v/%v", e.Mean[0][0], e.Var[0][0])
	}
}

func TestEnsembleStatsDeterministic(t *testing.T) {
	net := chem.MustParseNetwork(`
a = 20
a -> b @ 1
b -> a @ 1
`)
	e1 := EnsembleStats(net, []float64{1}, mc.Config{Trials: 100, Seed: 77}, directOn(net))
	e2 := EnsembleStats(net, []float64{1}, mc.Config{Trials: 100, Seed: 77}, directOn(net))
	if e1.Mean[0][0] != e2.Mean[0][0] || e1.Var[0][1] != e2.Var[0][1] {
		t.Fatal("EnsembleStats not reproducible")
	}
}

func TestEnsembleStatsWorkerPoolAgrees(t *testing.T) {
	// The parallel fixed-stripe accumulation must agree with the
	// single-worker run (the trajectories are identical by construction;
	// since the stripe scheme the accumulation order is too — the
	// bitwise check lives in TestEnsembleStatsBitIdenticalAcrossWorkerCounts)
	// and every fixed worker count is reproducible run-to-run.
	net := chem.MustParseNetwork(`
a = 50
a -> b @ 1
b -> a @ 0.5
`)
	grid := []float64{0.5, 1, 2}
	seq := EnsembleStats(net, grid, mc.Config{Trials: 400, Seed: 5, Workers: 1}, directOn(net))
	for _, workers := range []int{2, 3, 8} {
		par := EnsembleStats(net, grid, mc.Config{Trials: 400, Seed: 5, Workers: workers}, directOn(net))
		for k := range grid {
			for s := 0; s < net.NumSpecies(); s++ {
				if d := math.Abs(par.Mean[k][s] - seq.Mean[k][s]); d > 1e-9 {
					t.Errorf("workers=%d: mean[%d][%d] differs by %v", workers, k, s, d)
				}
				if d := math.Abs(par.Var[k][s] - seq.Var[k][s]); d > 1e-9 {
					t.Errorf("workers=%d: var[%d][%d] differs by %v", workers, k, s, d)
				}
			}
		}
		again := EnsembleStats(net, grid, mc.Config{Trials: 400, Seed: 5, Workers: workers}, directOn(net))
		if again.Mean[0][0] != par.Mean[0][0] || again.Var[2][1] != par.Var[2][1] {
			t.Errorf("workers=%d: not reproducible run-to-run", workers)
		}
	}
}

func TestEnsembleStatsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The fixed-stripe accumulation makes the whole result — not just the
	// trajectory set — a pure function of (net, grid, trials, seed):
	// every Mean and Var bit must be identical for every worker count,
	// including a trial count that is not a stripe multiple.
	net := chem.MustParseNetwork(`
a = 50
a -> b @ 1
b -> a @ 0.5
`)
	grid := []float64{0.5, 1, 2}
	const trials = 391
	base := EnsembleStats(net, grid, mc.Config{Trials: trials, Seed: 5, Workers: 1}, directOn(net))
	for _, workers := range []int{2, 4, 8} {
		par := EnsembleStats(net, grid, mc.Config{Trials: trials, Seed: 5, Workers: workers}, directOn(net))
		for k := range grid {
			for s := 0; s < net.NumSpecies(); s++ {
				if math.Float64bits(par.Mean[k][s]) != math.Float64bits(base.Mean[k][s]) {
					t.Errorf("workers=%d: mean[%d][%d] = %v, want bit-identical %v",
						workers, k, s, par.Mean[k][s], base.Mean[k][s])
				}
				if math.Float64bits(par.Var[k][s]) != math.Float64bits(base.Var[k][s]) {
					t.Errorf("workers=%d: var[%d][%d] = %v, want bit-identical %v",
						workers, k, s, par.Var[k][s], base.Var[k][s])
				}
			}
		}
	}
}

func TestEnsembleStatsEngineChoiceAgrees(t *testing.T) {
	// Any exact engine must produce identical trajectories for the same
	// per-trial streams when it consumes randomness the same way:
	// OptimizedDirect draws exactly like Direct, so the ensembles match.
	net := chem.MustParseNetwork(`
a = 30
a -> b @ 2
`)
	grid := []float64{0.1, 1}
	cfg := mc.Config{Trials: 300, Seed: 9, Workers: 2}
	direct := EnsembleStats(net, grid, cfg, directOn(net))
	optimized := EnsembleStats(net, grid, cfg, func(g *rng.PCG) Engine {
		return NewOptimizedDirect(net, g)
	})
	for k := range grid {
		if d := math.Abs(direct.Mean[k][0] - optimized.Mean[k][0]); d > 1e-9 {
			t.Errorf("grid %d: Direct vs OptimizedDirect mean differs by %v", k, d)
		}
	}
}

func TestEnsembleStatsPanics(t *testing.T) {
	net := chem.MustParseNetwork(`a -> 0 @ 1`)
	cfg := mc.Config{Trials: 10, Seed: 1}
	cases := []struct {
		name string
		f    func()
	}{
		{"empty grid", func() { EnsembleStats(net, nil, cfg, directOn(net)) }},
		{"non-increasing", func() { EnsembleStats(net, []float64{1, 1}, cfg, directOn(net)) }},
		{"negative", func() { EnsembleStats(net, []float64{-1, 1}, cfg, directOn(net)) }},
		{"zero trials", func() { EnsembleStats(net, []float64{1}, mc.Config{Seed: 1}, directOn(net)) }},
		// A NaN passes every ordering check and Step(NaN) never reports
		// Horizon; +Inf never reports it either.
		{"NaN", func() { EnsembleStats(net, []float64{math.NaN()}, cfg, directOn(net)) }},
		{"+Inf", func() { EnsembleStats(net, []float64{1, math.Inf(1)}, cfg, directOn(net)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

// TestEnsembleStatsEnginePanicReachesCaller: the ensemble runs on mc's
// pool, so a panicking engine factory is re-raised on the caller's
// goroutine, where it can be recovered, instead of killing the process
// from a worker goroutine.
func TestEnsembleStatsEnginePanicReachesCaller(t *testing.T) {
	net := chem.MustParseNetwork(`a -> 0 @ 1`)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "mc: trial body panicked") || !strings.Contains(msg, "no engine") {
			t.Fatalf("recovered %q, want mc's trial-body panic carrying the factory's message", msg)
		}
	}()
	EnsembleStats(net, []float64{1}, mc.Config{Trials: 8, Seed: 1, Workers: 2}, func(*rng.PCG) Engine {
		panic("no engine")
	})
	t.Fatal("EnsembleStats returned despite a panicking engine factory")
}
