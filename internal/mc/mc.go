// Package mc is the Monte Carlo harness used to characterise probabilistic
// responses, exactly as the paper does ("Monte Carlo simulations with
// 100,000 trials were performed").
//
// Trials run in parallel on a worker pool, but every trial draws its
// randomness from its own rng stream derived from (seed, trial index), so
// results are bit-for-bit reproducible regardless of scheduling and worker
// count. Outcome tallies come with Wilson confidence intervals, and Sweep
// drives a family of runs across a parameter range (the paper's γ and MOI
// sweeps).
//
// # One striped pool
//
// Every runner — tally (RunRangeWith), numeric (RunNumericRangeWith) and
// distribution (RunDistRangeWith), plus their whole-run and per-trial-
// engine wrappers — executes on one unexported worker pool. It resolves
// the worker count, gives each worker one generator and one engine,
// stripes trial indices statically across the workers, reseeds the
// worker's generator onto the stream (Seed, i) before trial i, and
// re-raises a panicking trial body on the caller's goroutine once the pool
// drains. The runners differ only in their accumulator: per-worker outcome
// counts, or one slot per trial folded in trial-index order.
//
// # Engine reuse
//
// Run and RunNumeric hand each trial a fresh generator and leave engine
// construction to the trial closure, which is simple but allocates the
// engine's propensity vectors, dependency graph and state clones once per
// trial. For hot paths, RunWith and RunNumericWith amortise that setup:
// each worker builds one engine via a factory and reuses it across its
// whole stripe of trials, repositioning its generator in place
// (rng.PCG.Reseed) so the trial→stream mapping — and hence every tallied
// result — is bit-for-bit identical to the per-trial-engine path. Run and
// RunNumeric are themselves thin wrappers over the *With variants.
//
// # Sharding
//
// Because trial i always draws from the stream (Seed, i), a run can be
// partitioned into disjoint trial ranges computed on different processes
// or machines and merged exactly: RunRangeWith tallies any [lo, hi) slice
// of a run (integer counts sum bit-for-bit), and RunNumericRangeWith
// returns the range's canonical moment forest (Moments), which merges to
// the whole-run Summary bit-for-bit for every partition. The full run is
// the 1-shard special case. internal/shard layers a wire format and a
// coordinator on top of these primitives.
package mc

import (
	"fmt"
	"math"

	"stochsynth/internal/rng"
)

// Outcome constants. Classifiers return a non-negative outcome index, or
// None when the trial produced no classifiable outcome (e.g. the race
// deadlocked with no winner).
const None = -1

// Trial runs one independent simulation with the supplied generator and
// returns an outcome index in [0, Outcomes) or None.
type Trial func(gen *rng.PCG) int

// Config parameterises a Monte Carlo run.
type Config struct {
	// Trials is the number of independent trials (must be > 0).
	Trials int
	// Outcomes is the number of distinct outcome indices (must be > 0).
	Outcomes int
	// Seed selects the reproducible stream family.
	Seed uint64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Result tallies the outcomes of a run.
type Result struct {
	// Counts[i] is the number of trials classified as outcome i.
	Counts []int64
	// None is the number of unclassifiable trials.
	None int64
	// Trials is the total number of trials run.
	Trials int64
}

// Proportion returns the estimator for outcome i over all trials
// (unclassified trials count in the denominator).
func (r Result) Proportion(i int) Proportion {
	return Proportion{Successes: r.Counts[i], Trials: r.Trials}
}

// Fraction returns Counts[i]/Trials as a plain float64 (0 for a zero-trial
// result, as Proportion.Estimate).
func (r Result) Fraction(i int) float64 {
	return r.Proportion(i).Estimate()
}

// String renders the tallies compactly for logs.
func (r Result) String() string {
	s := "mc.Result{"
	for i := range r.Counts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("p%d=%.4f", i, r.Fraction(i))
	}
	if r.None > 0 {
		s += fmt.Sprintf(" none=%d", r.None)
	}
	return s + fmt.Sprintf(" n=%d}", r.Trials)
}

// Run executes cfg.Trials independent trials of trial and tallies outcomes.
// It panics on invalid configuration or on out-of-range outcome indices
// (a classifier bug). Trials that build a simulation engine per call should
// prefer RunWith, which reuses one engine per worker.
func Run(cfg Config, trial Trial) Result {
	// The per-worker "engine" is just the worker's generator: classify sees
	// it already reseeded onto the trial's stream.
	return RunWith(cfg,
		func(gen *rng.PCG) *rng.PCG { return gen },
		func(gen *rng.PCG) int { return trial(gen) })
}

// NumericTrial runs one independent simulation and returns a numeric
// measurement (e.g. the output count of a deterministic module).
type NumericTrial func(gen *rng.PCG) float64

// Summary holds moment statistics of a numeric Monte Carlo run.
type Summary struct {
	N    int64
	Mean float64
	// Var is the unbiased sample variance.
	Var      float64
	Min, Max float64
}

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.N < 2 {
		return 0
	}
	return math.Sqrt(s.Var / float64(s.N))
}

// RunNumeric executes cfg.Trials independent numeric trials and summarises
// them. cfg.Outcomes is ignored. Trials that build a simulation engine per
// call should prefer RunNumericWith, which reuses one engine per worker.
func RunNumeric(cfg Config, trial NumericTrial) Summary {
	return RunNumericWith(cfg,
		func(gen *rng.PCG) *rng.PCG { return gen },
		func(gen *rng.PCG) float64 { return trial(gen) })
}
