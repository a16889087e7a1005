package synth

import (
	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// RaceResult reports one trial of the stochastic-module race experiment
// (the paper's Figure 3 setup).
type RaceResult struct {
	// FirstInit is the outcome whose initializing reaction fired first
	// (-1 if none fired before the run ended).
	FirstInit int
	// Winner is the outcome declared by the working threshold (-1 if the
	// system deadlocked or hit the step bound first).
	Winner int
	// Steps is the number of reaction events simulated.
	Steps int64
}

// Error reports whether the trial is an error in the paper's sense: "the
// first initializing reaction to fire does not determine the final
// outcome". Trials with no winner also count as errors (the initial choice
// certainly did not determine the outcome).
func (r RaceResult) Error() bool {
	return r.FirstInit < 0 || r.Winner != r.FirstInit
}

// RunRace simulates one race of the module until some outcome's outputs
// reach threshold copies (or maxSteps events pass), recording which
// initializing reaction fired first. This is the trial underlying Figure 3:
// the module is declared in error when the first initializing firing does
// not pick the final winner. It builds a fresh engine per call; Monte Carlo
// loops should build one engine per worker and use RunRaceWith.
func RunRace(mod *StochasticModule, threshold, maxSteps int64, gen *rng.PCG) RaceResult {
	return RunRaceWith(mod, sim.NewDirect(mod.Net, gen), threshold, maxSteps)
}

// RunRaceWith is RunRace on a caller-supplied engine, which it Resets to
// the module's initial state as of Build: the engine-reuse form for
// mc.RunWith worker loops.
//
// The race runs one step, then the rest (maxSteps−1 steps; none left when
// maxSteps is 1, no bound when it is 0). Every catalyst starts at zero
// (Build checks it) and every reaction but the initializing ones consumes
// a catalyst, so the first event is an initializing firing, and its
// outcome is the one whose catalyst is present after it: no per-event
// observer is needed. When every outcome has one output, both legs race
// one species threshold per outcome through sim.RunThresholdRace, the
// fused jump-chain loop on Direct and OptimizedDirect, which draws no
// holding times and, split 1 + (n−1), draws exactly what one n-step race
// draws. A module with a multi-output outcome races the output sums
// through sim.Run and ThresholdPredicate.
func RunRaceWith(mod *StochasticModule, eng sim.Engine, threshold, maxSteps int64) RaceResult {
	eng.Reset(mod.initial, 0)
	ths := mod.raceThresholds(threshold)
	res := mod.race(eng, ths, threshold, 1)
	first := -1
	if res.Steps == 1 {
		first = mod.catalystOutcome(eng.State())
	}
	if res.Reason == sim.StopSteps && maxSteps != 1 {
		rest := mod.race(eng, ths, threshold, max(maxSteps-1, 0))
		res.Steps += rest.Steps
		res.Reason = rest.Reason
	}
	winner := -1
	if res.Reason == sim.StopPredicate {
		winner = mod.Winner(eng.State(), threshold)
	}
	return RaceResult{FirstInit: first, Winner: winner, Steps: res.Steps}
}

// race runs one leg of RunRaceWith: at most maxSteps events (0 means no
// bound) on the race list ths, or on the output sums when ths is nil.
func (m *StochasticModule) race(eng sim.Engine, ths []sim.SpeciesThreshold, threshold, maxSteps int64) sim.RunResult {
	if ths == nil {
		return sim.Run(eng, sim.RunOptions{MaxSteps: maxSteps, StopWhen: m.ThresholdPredicate(threshold)})
	}
	return sim.RunThresholdRace(eng, ths, maxSteps)
}

// Figure3Spec returns the module specification of the paper's Figure 3
// error experiment: three outcomes, every Eᵢ = 100, every kᵢ = 1, rates per
// Equation 1 with the given γ.
func Figure3Spec(gamma float64) StochasticSpec {
	return StochasticSpec{
		Outcomes: []Outcome{
			{Weight: 100, Outputs: []Output{{FoodQuantity: 100}}},
			{Weight: 100, Outputs: []Output{{FoodQuantity: 100}}},
			{Weight: 100, Outputs: []Output{{FoodQuantity: 100}}},
		},
		Gamma: gamma,
	}
}

// Figure3Threshold is the paper's outcome-declaration threshold: "a working
// reaction needs to fire 10 times for us to declare an outcome".
const Figure3Threshold = 10

// Figure3MaxSteps bounds one Figure 3 race (deadlock safety net).
const Figure3MaxSteps = 2_000_000

// Figure3Observer returns the one trial body of the Figure 3 error
// experiment on mod, behind Figure3Tally and every Figure 3 sweep form in
// internal/shard: one RunRaceWith call, returning the error indicator as
// the outcome (1 when the first initializing firing did not determine the
// winner, 0 when it did) with the race length in reaction events as its
// first-passage step count and as both the continuous and the integer
// measurement. Pair it with one engine per worker (mc.RunWith/RunRangeWith).
func Figure3Observer(mod *StochasticModule) func(eng sim.Engine) mc.Obs {
	return func(eng sim.Engine) mc.Obs {
		r := RunRaceWith(mod, eng, Figure3Threshold, Figure3MaxSteps)
		outcome := 0
		if r.Error() {
			outcome = 1
		}
		return mc.Obs{Value: float64(r.Steps), IValue: r.Steps, Outcome: outcome, Steps: r.Steps}
	}
}

// Figure3ErrorRate runs the Figure 3 experiment at one γ on the default
// engine (OptimizedDirect), returning the fraction of trials in error.
func Figure3ErrorRate(gamma float64, trials int, seed uint64) (float64, error) {
	res, err := Figure3Tally(gamma, trials, seed, "")
	if err != nil {
		return 0, err
	}
	return res.Fraction(1), nil
}

// Figure3Tally runs the Figure 3 experiment at one γ: trials parallel
// races of the Figure3Spec module on the given engine kind (empty means
// OptimizedDirect), tallying Figure3Observer's outcome (1 = error). A
// hybrid engine receives the module's output species as its protected
// set, so the error statistic — which thresholds on exactly those
// species — keeps its distribution.
func Figure3Tally(gamma float64, trials int, seed uint64, kind sim.EngineKind) (mc.Result, error) {
	mod, err := Figure3Spec(gamma).Build()
	if err != nil {
		return mc.Result{}, err
	}
	protected := mod.ProtectedSpecies()
	comp := chem.Compile(mod.Net)
	observe := Figure3Observer(mod)
	return mc.RunWith(mc.Config{Trials: trials, Outcomes: 2, Seed: seed},
		func(gen *rng.PCG) sim.Engine {
			return sim.MustEngineOfKindCompiled(kind, comp, protected, gen)
		},
		func(eng sim.Engine) int { return observe(eng).Outcome }), nil
}
