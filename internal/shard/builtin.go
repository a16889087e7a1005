package shard

import (
	"fmt"
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// Builtin sweep ids. The parameter of the lambda sweeps is the MOI (an
// integer-valued grid point); the Figure 3 sweeps' parameter is γ.
const (
	SweepLambdaSynthetic       = "lambda/synthetic"
	SweepLambdaSyntheticHybrid = "lambda/synthetic-hybrid"
	SweepLambdaNatural         = "lambda/natural"
	SweepLambdaMOICurve        = "lambda/moi-curve"
	SweepFig3Error             = "synth/fig3-error"
	SweepFig3ErrorHybrid       = "synth/fig3-error-hybrid"
	SweepFig3Numeric           = "synth/fig3-sweep"

	// Distribution forms (wire format v2): every builtin trial body above
	// has a -dist counterpart that observes the same races through
	// lambda.Model.Observer / synth.Figure3Observer and accumulates the
	// full mc.DistSummary bundle per grid point.
	SweepLambdaSyntheticDist       = "lambda/synthetic-dist"
	SweepLambdaSyntheticHybridDist = "lambda/synthetic-hybrid-dist"
	SweepLambdaNaturalDist         = "lambda/natural-dist"
	SweepFig3Dist                  = "synth/fig3-dist"
	SweepFig3HybridDist            = "synth/fig3-hybrid-dist"
)

// Builtin returns a fresh registry holding the repository's named sweeps:
//
//   - lambda/synthetic — the synthesised lambda model's lysis/lysogeny
//     race (outcome 0 lysis, 1 lysogeny; param = MOI).
//   - lambda/synthetic-hybrid — the same race on the hybrid engine
//     (sim.Hybrid, exact race plus analytic relays): same outcome
//     distribution, ~tens of times the trial throughput (see
//     docs/engines.md).
//   - lambda/natural — the natural-model surrogate's race, the trial
//     behind Model.Characterize and the Figure 5 sweep (param = MOI).
//   - lambda/moi-curve — the numeric form of the synthesised model's MOI
//     response (the paper's Figure 5 curve): each trial measures the
//     lysogeny indicator (1 lysogeny, 0 lysis or unresolved), so the
//     merged Summary's Mean is the lysogeny fraction with its StdErr
//     (param = MOI).
//   - synth/fig3-error — the Figure 3 stochastic-module error experiment
//     (outcome 1 = trial in error; param = γ).
//   - synth/fig3-error-hybrid — Figure 3 on the hybrid engine.
//   - synth/fig3-sweep — the numeric form of the Figure 3 sweep: each
//     trial measures the error indicator (1 error, 0 correct), so the
//     merged Summary's Mean is the error rate with its StdErr (param = γ).
//
// Each trial body also has a distribution form (the -dist sweeps): the
// lambda races observe the CI2−Cro2 decision margin (moments + quantile
// sketch), the jump-chain event count (fixed-bin histogram), and the
// lysis/lysogeny outcome with its first-passage step count (first-passage
// summary); the Figure 3 races observe the race length in events and the
// error indicator the same way. The -dist sweeps consume exactly the trial
// streams of their tally counterparts, so per-trial outcomes — and hence
// the first-passage class counts — agree with the tallies trial for trial.
//
// The numeric sweeps consume exactly the trial streams of their tally
// counterparts (same engine construction, same classifier), so per-trial
// outcomes agree trial for trial, and their canonical mc.Moments
// summaries merge bit-for-bit across any partition — over the network
// transport and through the shard journal included.
//
// The non-hybrid sweeps rebuild the exact engine-reuse trial bodies of the
// single-process paths, so sharded runs merge bit-for-bit with them; the
// hybrid sweeps are equivalent in distribution, not bit-for-bit (different
// randomness consumption), and their shards still merge exactly among
// themselves.
func Builtin() *Registry {
	reg := NewRegistry()
	reg.Register(SweepLambdaSynthetic, lambdaFactory(func() (*lambda.Model, error) {
		return lambda.SyntheticModel(), nil
	}))
	reg.Register(SweepLambdaSyntheticHybrid, lambdaFactory(func() (*lambda.Model, error) {
		return lambda.SyntheticModel().WithEngine(sim.EngineHybrid), nil
	}))
	reg.Register(SweepLambdaNatural, lambdaFactory(func() (*lambda.Model, error) {
		return lambda.NaturalModel(lambda.NaturalParams{})
	}))
	reg.Register(SweepLambdaMOICurve, moiCurveFactory())
	reg.Register(SweepFig3Error, fig3Factory(""))
	reg.Register(SweepFig3ErrorHybrid, fig3Factory(sim.EngineHybrid))
	reg.Register(SweepFig3Numeric, fig3NumericFactory())
	reg.Register(SweepLambdaSyntheticDist, lambdaDistFactory(func() (*lambda.Model, error) {
		return lambda.SyntheticModel(), nil
	}))
	reg.Register(SweepLambdaSyntheticHybridDist, lambdaDistFactory(func() (*lambda.Model, error) {
		return lambda.SyntheticModel().WithEngine(sim.EngineHybrid), nil
	}))
	reg.Register(SweepLambdaNaturalDist, lambdaDistFactory(func() (*lambda.Model, error) {
		return lambda.NaturalModel(lambda.NaturalParams{})
	}))
	reg.Register(SweepFig3Dist, fig3DistFactory(""))
	reg.Register(SweepFig3HybridDist, fig3DistFactory(sim.EngineHybrid))
	return reg
}

// lambdaHist is the histogram layout of the lambda -dist sweeps: the
// integer observable is the jump-chain event count, binned 512×256 events
// over [0, 131072) with overflow tallied exactly.
var lambdaHist = mc.HistConfig{Lo: 0, Width: 256, Bins: 512}

// fig3Hist is the histogram layout of the Figure 3 -dist sweeps: races to
// threshold 10 are short, so 512×64 events over [0, 32768).
var fig3Hist = mc.HistConfig{Lo: 0, Width: 64, Bins: 512}

// lambdaDistFactory adapts a lambda model constructor into a distribution
// factory whose parameter is the MOI, observing through Model.Observer on
// the same per-worker engines as lambdaFactory.
func lambdaDistFactory(build func() (*lambda.Model, error)) Factory {
	return Factory{
		Outcomes: 2,
		Dist:     true,
		Hist:     lambdaHist,
		DistF: func(param float64) (DistTrial, error) {
			moi := int64(math.Round(param))
			if float64(moi) != param || moi < 1 {
				return DistTrial{}, fmt.Errorf("MOI grid value %v is not a positive integer", param)
			}
			m, err := build()
			if err != nil {
				return DistTrial{}, err
			}
			observe := m.Observer(moi)
			newEngine := m.EngineFactoryAt(moi)
			return DistTrial{
				NewEngine: func(gen *rng.PCG) any { return newEngine(gen) },
				Observe:   func(eng any) mc.Obs { return observe(eng.(sim.Engine)) },
			}, nil
		},
	}
}

// fig3DistFactory builds the distribution form of the Figure 3 sweep on
// the given engine kind (empty = OptimizedDirect), observing through
// synth.Figure3Observer on the same engines as fig3Factory.
func fig3DistFactory(kind sim.EngineKind) Factory {
	return Factory{
		Outcomes: 2,
		Dist:     true,
		Hist:     fig3Hist,
		DistF: func(gamma float64) (DistTrial, error) {
			mod, err := synth.Figure3Spec(gamma).Build()
			if err != nil {
				return DistTrial{}, err
			}
			observe := synth.Figure3Observer(mod)
			protected := mod.ProtectedSpecies()
			comp := chem.Compile(mod.Net)
			return DistTrial{
				NewEngine: func(gen *rng.PCG) any {
					return sim.MustEngineOfKindCompiled(kind, comp, protected, gen)
				},
				Observe: func(eng any) mc.Obs { return observe(eng.(sim.Engine)) },
			}, nil
		},
	}
}

// lambdaFactory adapts a lambda model constructor into a tally factory
// whose parameter is the MOI. The engine comes from the model (its
// configured kind, OptimizedDirect by default).
func lambdaFactory(build func() (*lambda.Model, error)) Factory {
	return Factory{
		Outcomes: 2,
		Outcome: func(param float64) (OutcomeTrial, error) {
			moi := int64(math.Round(param))
			if float64(moi) != param || moi < 1 {
				return OutcomeTrial{}, fmt.Errorf("MOI grid value %v is not a positive integer", param)
			}
			m, err := build()
			if err != nil {
				return OutcomeTrial{}, err
			}
			classify := m.Classifier(moi)
			newEngine := m.EngineFactoryAt(moi)
			return OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any { return newEngine(gen) },
				Classify:  func(eng any) int { return classify(eng.(sim.Engine)) },
			}, nil
		},
	}
}

// moiCurveFactory builds the numeric MOI-response sweep on the synthetic
// model: the per-trial lysogeny indicator, on exactly the engine and
// classifier Characterize uses, so trial t's measurement is determined by
// the same stream draw as trial t of the lambda/synthetic tally.
func moiCurveFactory() Factory {
	return Factory{
		Numeric: true,
		NumericF: func(param float64) (NumericTrial, error) {
			moi := int64(math.Round(param))
			if float64(moi) != param || moi < 1 {
				return NumericTrial{}, fmt.Errorf("MOI grid value %v is not a positive integer", param)
			}
			m := lambda.SyntheticModel()
			classify := m.Classifier(moi)
			newEngine := m.EngineFactoryAt(moi)
			return NumericTrial{
				NewEngine: func(gen *rng.PCG) any { return newEngine(gen) },
				Measure: func(eng any) float64 {
					if classify(eng.(sim.Engine)) == lambda.Lysogeny {
						return 1
					}
					return 0
				},
			}, nil
		},
	}
}

// fig3NumericFactory builds the numeric Figure 3 sweep: the per-trial
// error indicator on the default engine, stream-identical to the
// synth/fig3-error tally trials.
func fig3NumericFactory() Factory {
	return Factory{
		Numeric: true,
		NumericF: func(gamma float64) (NumericTrial, error) {
			mod, err := synth.Figure3Spec(gamma).Build()
			if err != nil {
				return NumericTrial{}, err
			}
			classify := synth.Figure3Classifier(mod)
			protected := mod.ProtectedSpecies()
			comp := chem.Compile(mod.Net)
			return NumericTrial{
				NewEngine: func(gen *rng.PCG) any {
					return sim.MustEngineOfKindCompiled("", comp, protected, gen)
				},
				Measure: func(eng any) float64 {
					return float64(classify(eng.(sim.Engine)))
				},
			}, nil
		},
	}
}

// fig3Factory builds the Figure 3 error-rate sweep on the given engine kind
// (empty = OptimizedDirect).
func fig3Factory(kind sim.EngineKind) Factory {
	return Factory{
		Outcomes: 2,
		Outcome: func(gamma float64) (OutcomeTrial, error) {
			mod, err := synth.Figure3Spec(gamma).Build()
			if err != nil {
				return OutcomeTrial{}, err
			}
			classify := synth.Figure3Classifier(mod)
			protected := mod.ProtectedSpecies()
			comp := chem.Compile(mod.Net)
			return OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any {
					return sim.MustEngineOfKindCompiled(kind, comp, protected, gen)
				},
				Classify: func(eng any) int { return classify(eng.(sim.Engine)) },
			}, nil
		},
	}
}
