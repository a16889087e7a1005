// Package lambda reproduces the paper's application study (§3): fitting the
// stochastic lysis/lysogeny response of the lambda bacteriophage with a
// synthesised reaction network.
//
// Three models participate, mirroring Figure 5's three series:
//
//   - Reference: the paper's Equation 14 curve fit,
//     P(cI₂ threshold)% = 15 + 6·log₂(MOI) + MOI/6, obtained by the authors
//     from Monte Carlo runs of the Arkin et al. (1998) natural model.
//   - NaturalModel: a mechanistic surrogate for the Arkin model (117
//     reactions / 61 species, not reprinted in the paper) — an MOI-dosed
//     cro/cI race with capacity-limited CII degradation; see natural.go
//     for the substitution rationale.
//   - Synthesize / SyntheticModel: the paper's synthesis output, a
//     19-reaction / 17-species network (Figure 4) built from the synth
//     package's modules, programmable for any response a + b·log₂ + x/c.
//
// Outcomes follow the paper's thresholds: lysis when cro₂ reaches 55
// copies, lysogeny when cI₂ reaches 145.
package lambda

import (
	"fmt"

	"stochsynth/internal/chem"
	"stochsynth/internal/fit"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// Outcome indices reported by model classifiers.
const (
	// Lysis: the cro₂ threshold was reached first.
	Lysis = 0
	// Lysogeny: the cI₂ threshold was reached first.
	Lysogeny = 1
)

// Thresholds are the paper's outcome thresholds: "the outcomes are judged
// according to threshold values: 55 for cro2 and 145 for ci2".
type Thresholds struct {
	Cro2 int64
	CI2  int64
}

// DefaultThresholds returns the paper's values.
func DefaultThresholds() Thresholds { return Thresholds{Cro2: 55, CI2: 145} }

// Reference returns Equation 14, the paper's curve fit to the natural
// model: P(lysogeny)% = 15 + 6·log₂(MOI) + MOI/6. (The paper's text labels
// this P(lysis), but Figure 5's axis — "cI₂ Threshold Reached (%)" — and
// the biology both identify the rising curve with lysogeny.)
func Reference() fit.LogLin {
	return fit.LogLin{A: 15, B: 6, C: 1.0 / 6, R2: 1}
}

// Model is a lambda-switch model ready for Monte Carlo characterisation.
type Model struct {
	// Name identifies the model in reports ("synthetic", "natural").
	Name string
	// Net is the reaction network; MOI is installed per trial.
	Net *chem.Network
	// MOI, Cro2 and CI2 are the input and output species.
	MOI  chem.Species
	Cro2 chem.Species
	CI2  chem.Species
	// Thresholds classify the outcome.
	Thresholds Thresholds
	// MaxSteps bounds one trial (deadlock safety net).
	MaxSteps int64
	// Engine selects the simulation engine for Characterize, SweepMOI and
	// EngineFactoryAt; the zero value is OptimizedDirect. Set
	// sim.EngineHybrid to race the thresholds on the hybrid engine, which
	// batches the logarithm module's clock as an exact relay (the outcome
	// species are passed as its protected set automatically).
	Engine sim.EngineKind
}

// WithEngine returns a shallow copy of the model with the engine kind set —
// convenient for registries and flag plumbing that must not mutate a shared
// model.
func (m *Model) WithEngine(kind sim.EngineKind) *Model {
	c := *m
	c.Engine = kind
	return &c
}

// EngineFactoryAt compiles the network once and returns a constructor that
// builds engines of the model's configured kind over the shared immutable
// kernel — the per-worker factory shape mc.RunWith wants. The outcome
// species are the protected set for hybrid partitioning.
//
// The kernel's channel ordering is computed at the MOI-dosed initial state
// (chem.CompileAt) — the characteristic state the trial body actually
// Resets engines to. At the undosed default every cascade channel is quiet
// and ranks by the rate-constant tiebreak, which puts the models' hot
// channels at the back of the selection scan; dosing the ordering state
// fixes the ranking. Any ordering is exact; the sampled trajectory stream
// depends on it because propensity totals accumulate in channel order.
func (m *Model) EngineFactoryAt(moi int64) func(gen *rng.PCG) sim.Engine {
	st0 := m.Net.InitialState()
	st0.Set(m.MOI, moi)
	comp := chem.CompileAt(m.Net, st0)
	protected := []chem.Species{m.Cro2, m.CI2}
	kind := m.Engine
	return func(gen *rng.PCG) sim.Engine {
		return sim.MustEngineOfKindCompiled(kind, comp, protected, gen)
	}
}

// Classifier returns Characterize's per-trial body: reset eng to the
// MOI-dosed initial state, race the lysis/lysogeny pathways to a
// threshold, and classify the outcome (Lysis, Lysogeny, or mc.None on
// deadlock). It is exported so the internal/shard trial registry can
// rebuild the exact Characterize trial in a fresh worker process; pair it
// with one engine per worker (mc.RunWith/RunRangeWith).
func (m *Model) Classifier(moi int64) func(eng sim.Engine) int {
	race := m.racer(moi)
	return func(eng sim.Engine) int {
		outcome, _ := race(eng)
		return outcome
	}
}

// Observer returns the distribution-trial body of the MOI race for
// internal/shard's dist sweeps: it runs exactly Classifier's race —
// identical stream consumption, so per-trial outcomes agree trial for
// trial with Characterize — and returns the full mc.Obs bundle: the
// CI2−Cro2 decision margin as the continuous measurement, the jump-chain
// event count as the integer measurement, and the race outcome with its
// first-passage step count (see docs/engines.md on why the step count is
// the exact time-free first-passage statistic).
func (m *Model) Observer(moi int64) func(eng sim.Engine) mc.Obs {
	race := m.racer(moi)
	ci2, cro2 := m.CI2, m.Cro2
	return func(eng sim.Engine) mc.Obs {
		outcome, steps := race(eng)
		st := eng.State()
		return mc.Obs{
			Value:   float64(st[ci2]) - float64(st[cro2]),
			IValue:  steps,
			Outcome: outcome,
			Steps:   steps,
		}
	}
}

// racer is the single race body behind Classifier and Observer: reset,
// race, classify, and report the jump-chain event count. Keeping one code
// path guarantees the two consume identical rng streams.
func (m *Model) racer(moi int64) func(eng sim.Engine) (outcome int, steps int64) {
	st0 := m.Net.InitialState()
	st0.Set(m.MOI, moi)
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = 5_000_000
	}
	ths := []sim.SpeciesThreshold{
		{Species: m.Cro2, Count: m.Thresholds.Cro2}, // lysis
		{Species: m.CI2, Count: m.Thresholds.CI2},   // lysogeny
	}
	return func(eng sim.Engine) (int, int64) {
		eng.Reset(st0, 0)
		res := sim.RunThresholdRace(eng, ths, maxSteps)
		if res.Reason != sim.StopPredicate {
			return mc.None, res.Steps
		}
		if eng.State()[m.CI2] >= m.Thresholds.CI2 {
			return Lysogeny, res.Steps
		}
		return Lysis, res.Steps
	}
}

// Characterize runs the Monte Carlo characterisation of one MOI point on
// the engine-reuse path: each worker builds one engine of the model's
// configured kind (OptimizedDirect by default; dependency graphs,
// partitions and propensity vectors allocated once) and Resets it per
// trial. This is the paper's "100,000 trials" measurement loop and the
// package's hot path.
func (m *Model) Characterize(moi int64, trials int, seed uint64) mc.Result {
	classify := m.Classifier(moi)
	return mc.RunWith(
		mc.Config{Trials: trials, Outcomes: 2, Seed: seed},
		m.EngineFactoryAt(moi),
		classify,
	)
}

// Point is one MOI sweep sample: the measured lysogeny percentage with its
// 95% Wilson interval.
type Point struct {
	MOI         int64
	PctLysogeny float64
	PctLo       float64
	PctHi       float64
	Unresolved  int64
}

// SweepMOI characterises the model's probabilistic response across the
// given MOI values ("sweeping the quantity of the input type moi"),
// running trials Monte Carlo trials per point.
func SweepMOI(m *Model, mois []int64, trials int, seed uint64) []Point {
	points := make([]Point, len(mois))
	for i, moi := range mois {
		res := m.Characterize(moi, trials, mc.PointSeed(seed, i))
		p := res.Proportion(Lysogeny)
		lo, hi := p.Wilson(mc.Z95)
		points[i] = Point{
			MOI:         moi,
			PctLysogeny: 100 * p.Estimate(),
			PctLo:       100 * lo,
			PctHi:       100 * hi,
			Unresolved:  res.None,
		}
	}
	return points
}

// RoundToParams converts a fitted response into synthesisable parameters:
// A and B round to the nearest integers (clamped to the valid ranges) and
// the linear coefficient c becomes its nearest inverse-integer 1/CInv.
// This is the quantisation step between the paper's Equation 14 and its
// Figure 4 construction (15, 6, 1/6 happen to be exactly representable).
// It returns an error when the fitted curve cannot be realised (e.g.
// non-positive constant term).
func RoundToParams(m fit.LogLin) (SynthesisParams, error) {
	a := int64(m.A + 0.5)
	if a < 1 || a > 99 {
		return SynthesisParams{}, fmt.Errorf("lambda: constant term %v not realisable as initial quantity in (0,100)", m.A)
	}
	b := int64(m.B + 0.5)
	if b < 1 {
		b = 1 // a flat-in-log response still needs a positive per-pass count
	}
	var cinv int64
	switch {
	case m.C > 1:
		cinv = 1
	case m.C > 0:
		cinv = int64(1/m.C + 0.5)
		if cinv > 1000 {
			cinv = 1000 // effectively no linear term
		}
	default:
		cinv = 1000
	}
	return SynthesisParams{A: a, B: b, CInv: cinv}, nil
}

// FitResponse fits the paper's a + b·log₂(MOI) + c·MOI model to sweep
// points (the step the paper performs on the natural model's data to obtain
// Equation 14).
func FitResponse(points []Point) (fit.LogLin, error) {
	if len(points) < 3 {
		return fit.LogLin{}, fmt.Errorf("lambda: need at least 3 points, got %d", len(points))
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = float64(p.MOI)
		ys[i] = p.PctLysogeny
	}
	return fit.FitLogLin(xs, ys)
}
