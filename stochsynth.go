// Package stochsynth synthesizes stochastic behaviour in biochemical
// systems: it compiles a specified probability distribution over discrete
// outcomes — optionally a programmable function of input molecular
// quantities — into an abstract chemical reaction network, and provides the
// exact stochastic simulation and Monte Carlo machinery to verify the
// result.
//
// It is a from-scratch reproduction of Fett, Bruck & Riedel,
// "Synthesizing Stochasticity in Biochemical Systems", DAC 2007.
//
// # Quick start
//
// Program a 30/40/30 three-outcome distribution (the paper's Example 1),
// simulate it, and verify the outcome frequencies:
//
//	mod, err := stochsynth.StochasticSpec{
//		Outcomes: []stochsynth.Outcome{{Weight: 30}, {Weight: 40}, {Weight: 30}},
//		Gamma:    1e3,
//	}.Build()
//	if err != nil { ... }
//	res := stochsynth.MonteCarlo(stochsynth.MCConfig{Trials: 10000, Outcomes: 3, Seed: 1},
//		func(gen *stochsynth.RNG) int {
//			eng := stochsynth.NewDirect(mod.Net, gen)
//			stochsynth.Simulate(eng, stochsynth.RunOptions{
//				StopWhen: mod.ThresholdPredicate(10),
//			})
//			return mod.Winner(eng.State(), 10)
//		})
//	fmt.Println(res) // ≈ p0=0.30 p1=0.40 p2=0.30
//
// # Architecture
//
// The facade re-exports the stable API of the internal packages:
//
//   - network modelling (internal/chem): Network, Reaction, State,
//     ParseNetwork, Format
//   - synthesis (internal/synth): StochasticSpec, the deterministic
//     function modules, affine preprocessing
//   - exact simulation (internal/sim): Direct, OptimizedDirect and
//     FirstReaction
//   - Monte Carlo (internal/mc) and curve fitting (internal/fit)
//   - the lambda bacteriophage application (internal/lambda)
//
// Downstream code imports only this package; the internal packages are not
// importable outside the module, which keeps the public surface small and
// stable.
package stochsynth

import (
	"stochsynth/internal/chem"
	"stochsynth/internal/fit"
	"stochsynth/internal/lambda"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// Network modelling.
type (
	// Network is a chemical reaction network (species, reactions, initial
	// quantities).
	Network = chem.Network
	// Species identifies a molecular type within one Network.
	Species = chem.Species
	// Reaction is one reaction channel with mass-action kinetics.
	Reaction = chem.Reaction
	// Term pairs a species with a stoichiometric coefficient.
	Term = chem.Term
	// State is a vector of molecule counts indexed by Species.
	State = chem.State
	// Builder provides fluent network construction by species name.
	Builder = chem.Builder
)

// NewNetwork returns an empty network.
func NewNetwork() *Network { return chem.NewNetwork() }

// NewBuilder returns a Builder over a fresh network.
func NewBuilder() *Builder { return chem.NewBuilder() }

// ParseNetwork parses the .crn text format. See internal/chem.ParseNetwork
// for the grammar.
var ParseNetwork = chem.ParseNetwork

// ParseNetworkString parses a .crn document held in a string.
var ParseNetworkString = chem.ParseNetworkString

// Format renders a network in the paper's notation (Figure 4 style).
var Format = chem.Format

// FormatReaction renders one reaction in the paper's notation.
var FormatReaction = chem.FormatReaction

// MarshalCRN renders a network in the parseable .crn format.
func MarshalCRN(net *Network) []byte { return chem.AppendCRN(nil, net) }

// Propensity returns the stochastic propensity of r in state s.
var Propensity = chem.Propensity

// Validate performs structural checks on a network.
var Validate = chem.Validate

// Randomness.
type (
	// RNG is the deterministic PCG generator used throughout.
	RNG = rng.PCG
)

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewRNGStream returns an independent stream for parallel work.
func NewRNGStream(seed, stream uint64) *RNG { return rng.NewStream(seed, stream) }

// Simulation.
type (
	// Engine is an exact stochastic simulation engine.
	Engine = sim.Engine
	// RunOptions bounds a simulation run and attaches observers.
	RunOptions = sim.RunOptions
	// RunResult summarises a simulation run.
	RunResult = sim.RunResult
	// Trajectory records (time, state) samples.
	Trajectory = sim.Trajectory
)

// NewDirect returns a Gillespie direct-method engine.
func NewDirect(net *Network, gen *RNG) Engine { return sim.NewDirect(net, gen) }

// NewFirstReaction returns a first-reaction-method engine.
func NewFirstReaction(net *Network, gen *RNG) Engine { return sim.NewFirstReaction(net, gen) }

// NewOptimizedDirect returns a dependency-graph-optimised direct engine.
func NewOptimizedDirect(net *Network, gen *RNG) Engine { return sim.NewOptimizedDirect(net, gen) }

// Simulate drives an engine until a stop condition is met.
var Simulate = sim.Run

// Monte Carlo.
type (
	// MCConfig parameterises a Monte Carlo run.
	MCConfig = mc.Config
	// MCResult tallies outcome counts.
	MCResult = mc.Result
	// Proportion is a binomial proportion with Wilson intervals.
	Proportion = mc.Proportion
)

// MonteCarlo runs independent trials in parallel with reproducible
// per-trial randomness.
var MonteCarlo = mc.Run

// MonteCarloWith runs independent trials with per-worker engine reuse:
// newEngine is called once per worker, and classify runs every trial of
// that worker's stripe on the same engine (reseeded per trial), avoiding
// per-trial construction of propensity vectors and dependency graphs.
// Results are bit-for-bit identical to the per-trial-engine path.
func MonteCarloWith[E any](cfg MCConfig, newEngine func(*RNG) E, classify func(E) int) MCResult {
	return mc.RunWith(cfg, newEngine, classify)
}

// MonteCarloNone is the outcome value meaning "unclassifiable trial".
const MonteCarloNone = mc.None

// Synthesis.
type (
	// StochasticSpec specifies a stochastic module (§2.1 of the paper).
	StochasticSpec = synth.StochasticSpec
	// Outcome specifies one discrete outcome of a stochastic module.
	Outcome = synth.Outcome
	// Output specifies a working-reaction product.
	Output = synth.Output
	// StochasticModule is a built stochastic module.
	StochasticModule = synth.StochasticModule
	// AffineSpec programs p = c + A·X preprocessing (Example 2).
	AffineSpec = synth.AffineSpec
	// AffineModule is a built affine-programmed module.
	AffineModule = synth.AffineModule
	// LinearSpec is the αx → βy module.
	LinearSpec = synth.LinearSpec
	// Exp2Spec computes Y∞ = 2^X₀.
	Exp2Spec = synth.Exp2Spec
	// Log2Spec computes Y∞ = log₂X₀.
	Log2Spec = synth.Log2Spec
	// PowerSpec computes Y∞ = X₀^P₀.
	PowerSpec = synth.PowerSpec
	// IsolationSpec enforces Y∞ = 1.
	IsolationSpec = synth.IsolationSpec
	// PolynomialSpec computes Y∞ = max(0, Σ c_k·X^k) (§2.2.2).
	PolynomialSpec = synth.PolynomialSpec
	// RateBands maps relative speed levels to concrete rates.
	RateBands = synth.RateBands
)

// EvalPolynomial returns the value a PolynomialSpec network converges to.
var EvalPolynomial = synth.EvalPolynomial

// DefaultBands returns the paper's band scheme (slowest 1e-3, ×10³ apart).
var DefaultBands = synth.DefaultBands

// FanOut adds the in → out₁ + … + outₙ glue reaction.
var FanOut = synth.FanOut

// Assimilation adds the y + e_from → e_to glue reaction.
var Assimilation = synth.Assimilation

// Curve fitting.
type (
	// LogLin is the paper's a + b·log₂(x) + c·x response model (Eq. 14).
	LogLin = fit.LogLin
)

// FitLogLin fits the Equation 14 model family by least squares.
var FitLogLin = fit.FitLogLin

// Lambda bacteriophage application (§3).
type (
	// LambdaModel is a lysis/lysogeny model ready for characterisation.
	LambdaModel = lambda.Model
	// LambdaPoint is one MOI sweep sample.
	LambdaPoint = lambda.Point
	// SynthesisParams programs a synthetic lambda response.
	SynthesisParams = lambda.SynthesisParams
	// NaturalParams are the natural-surrogate rate constants.
	NaturalParams = lambda.NaturalParams
)

// LambdaReference returns Equation 14.
var LambdaReference = lambda.Reference

// LambdaSynthetic returns the paper's Figure 4 model.
var LambdaSynthetic = lambda.SyntheticModel

// LambdaSynthesize compiles custom response parameters into a model.
var LambdaSynthesize = lambda.Synthesize

// LambdaNatural builds the mechanistic natural-model surrogate.
var LambdaNatural = lambda.NaturalModel

// LambdaSweepMOI characterises a model across MOI values.
var LambdaSweepMOI = lambda.SweepMOI

// LambdaFitResponse fits Equation 14's family to sweep points.
var LambdaFitResponse = lambda.FitResponse
