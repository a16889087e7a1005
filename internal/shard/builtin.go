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
	// has a -dist counterpart that observes the same races and accumulates
	// the full mc.DistSummary bundle per grid point.
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
// error indicator the same way.
//
// Every form of a sweep wraps one trial body — lambda.Model.Observer or
// synth.Figure3Observer on the same per-worker engines — so the tally,
// numeric and -dist forms consume exactly the same trial streams: per-trial
// outcomes, first-passage class counts and numeric indicators agree trial
// for trial, and every summary merges bit-for-bit across any partition —
// over the network transport and through the shard journal included.
//
// The non-hybrid sweeps rebuild the exact engine-reuse trial bodies of the
// single-process paths (Model.Characterize, synth.Figure3Tally), so
// sharded runs merge bit-for-bit with them; the hybrid sweeps are
// equivalent in distribution, not bit-for-bit (different randomness
// consumption), and their shards still merge exactly among themselves.
func Builtin() *Registry {
	synthetic := lambdaPoint(func() (*lambda.Model, error) {
		return lambda.SyntheticModel(), nil
	})
	syntheticHybrid := lambdaPoint(func() (*lambda.Model, error) {
		return lambda.SyntheticModel().WithEngine(sim.EngineHybrid), nil
	})
	natural := lambdaPoint(func() (*lambda.Model, error) {
		return lambda.NaturalModel(lambda.NaturalParams{})
	})
	fig3, fig3Hybrid := fig3Point(""), fig3Point(sim.EngineHybrid)

	reg := NewRegistry()
	reg.Register(SweepLambdaSynthetic, synthetic.tally(2))
	reg.Register(SweepLambdaSyntheticHybrid, syntheticHybrid.tally(2))
	reg.Register(SweepLambdaNatural, natural.tally(2))
	reg.Register(SweepLambdaMOICurve, synthetic.numeric(outcomeOne))
	reg.Register(SweepFig3Error, fig3.tally(2))
	reg.Register(SweepFig3ErrorHybrid, fig3Hybrid.tally(2))
	reg.Register(SweepFig3Numeric, fig3.numeric(outcomeOne))
	reg.Register(SweepLambdaSyntheticDist, synthetic.dist(2, lambdaHist))
	reg.Register(SweepLambdaSyntheticHybridDist, syntheticHybrid.dist(2, lambdaHist))
	reg.Register(SweepLambdaNaturalDist, natural.dist(2, lambdaHist))
	reg.Register(SweepFig3Dist, fig3.dist(2, fig3Hist))
	reg.Register(SweepFig3HybridDist, fig3Hybrid.dist(2, fig3Hist))
	return reg
}

// lambdaHist is the histogram layout of the lambda -dist sweeps: the
// integer observable is the jump-chain event count, binned 512×256 events
// over [0, 131072) with overflow tallied exactly.
var lambdaHist = mc.HistConfig{Lo: 0, Width: 256, Bins: 512}

// fig3Hist is the histogram layout of the Figure 3 -dist sweeps: races to
// threshold 10 are short, so 512×64 events over [0, 32768).
var fig3Hist = mc.HistConfig{Lo: 0, Width: 64, Bins: 512}

// outcomeOne is the numeric builtins' measure: the outcome-1 indicator,
// the lysogeny fraction of the lambda races and the error rate of
// Figure 3 (an unresolved race measures 0).
func outcomeOne(o mc.Obs) float64 {
	if o.Outcome == 1 {
		return 1
	}
	return 0
}

// lambdaPoint builds the lambda sweeps' trial body at one MOI (the grid
// value, which must be a positive integer): Model.Observer on engines
// from Model.EngineFactoryAt, the model's configured kind
// (OptimizedDirect by default).
func lambdaPoint(build func() (*lambda.Model, error)) pointFunc {
	return func(param float64) (point, error) {
		moi := int64(math.Round(param))
		if float64(moi) != param || moi < 1 {
			return point{}, fmt.Errorf("MOI grid value %v is not a positive integer", param)
		}
		m, err := build()
		if err != nil {
			return point{}, err
		}
		return point{newEngine: m.EngineFactoryAt(moi), observe: m.Observer(moi)}, nil
	}
}

// fig3Point builds the Figure 3 sweeps' trial body at one γ on the given
// engine kind (empty = OptimizedDirect): synth.Figure3Observer on engines
// over the module's compiled kernel, with its output species protected.
func fig3Point(kind sim.EngineKind) pointFunc {
	return func(gamma float64) (point, error) {
		mod, err := synth.Figure3Spec(gamma).Build()
		if err != nil {
			return point{}, err
		}
		protected := mod.ProtectedSpecies()
		comp := chem.Compile(mod.Net)
		return point{
			newEngine: func(gen *rng.PCG) sim.Engine {
				return sim.MustEngineOfKindCompiled(kind, comp, protected, gen)
			},
			observe: synth.Figure3Observer(mod),
		}, nil
	}
}
