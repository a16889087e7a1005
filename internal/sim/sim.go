// Package sim implements stochastic simulation of chemical reaction
// networks (the "Monte Carlo simulations" of the paper): three exact engines
// and a hybrid that batches relays exactly.
//
// Engines:
//
//   - Direct: Gillespie's direct method (1977) — exact, recomputes all
//     propensities each step. Simple and branch-predictable; the default.
//   - OptimizedDirect: direct method with a dependency graph so only
//     affected propensities are refreshed — exact, faster on wide networks.
//   - FirstReaction: Gillespie's first-reaction method — exact, mainly a
//     cross-validation oracle (it consumes randomness very differently).
//   - Hybrid: exact next-event race over every channel no active relay
//     handles, plus exact analytic propagation of the relays — linear
//     first-order stretches such as a clock feeding a decay. Exact in
//     distribution; with no relay active it steps as Direct does (see
//     docs/engines.md for the exactness guarantee).
//
// All engines are deterministic given a seeded *rng.PCG and are not safe for
// concurrent use; parallel Monte Carlo creates one engine per worker (see
// package mc).
package sim

import (
	"math"

	"stochsynth/internal/chem"
)

// StepStatus reports the outcome of one Engine.Step call.
type StepStatus int

// Step outcomes.
const (
	// Fired: a reaction fired; state and time advanced.
	Fired StepStatus = iota
	// Quiescent: no reaction can ever fire again (total propensity zero);
	// state and time are unchanged.
	Quiescent
	// Horizon: the next event falls beyond the requested horizon; time
	// advanced to the horizon, state unchanged. By the memorylessness of
	// the exponential distribution the trajectory remains exact if
	// stepping continues afterwards with a later horizon.
	Horizon
)

func (s StepStatus) String() string {
	switch s {
	case Fired:
		return "fired"
	case Quiescent:
		return "quiescent"
	case Horizon:
		return "horizon"
	default:
		return "unknown"
	}
}

// Engine is an exact stochastic simulator positioned at a current (state,
// time) point of one trajectory.
type Engine interface {
	// Network returns the simulated network.
	Network() *chem.Network
	// State returns the live state vector. Callers must treat it as
	// read-only; it changes on every fired Step.
	State() chem.State
	// Time returns the current simulation time.
	Time() float64
	// Step attempts to fire the next reaction event no later than
	// horizon (pass math.Inf(1) for no horizon). On Fired it returns the
	// fired reaction's index; otherwise reaction is -1.
	Step(horizon float64) (reaction int, status StepStatus)
	// Reset repositions the engine at the given state and time. The state
	// is copied, so the caller keeps ownership of its slice.
	Reset(state chem.State, t float64)
}

// NoHorizon is a convenience +Inf horizon for Step.
func NoHorizon() float64 { return math.Inf(1) }

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	// StopQuiescent: no reaction can fire (total propensity is zero).
	StopQuiescent StopReason = iota
	// StopTime: simulated time reached MaxTime.
	StopTime
	// StopSteps: the event count reached MaxSteps.
	StopSteps
	// StopPredicate: the StopWhen predicate returned true.
	StopPredicate
)

func (r StopReason) String() string {
	switch r {
	case StopQuiescent:
		return "quiescent"
	case StopTime:
		return "time limit"
	case StopSteps:
		return "step limit"
	case StopPredicate:
		return "predicate"
	default:
		return "unknown"
	}
}

// RunOptions bounds a Run and attaches observers.
//
// A zero MaxTime or MaxSteps means "no limit" for that bound; at least one
// of the three stopping mechanisms (MaxTime, MaxSteps, StopWhen) should be
// set for networks that never quiesce (e.g. the paper's logarithm module,
// whose b→b+a clock ticks forever).
type RunOptions struct {
	// MaxTime stops the run once simulation time reaches it; the state is
	// exact at that time (no event beyond the horizon is taken).
	MaxTime float64
	// MaxSteps stops the run after this many reaction events.
	MaxSteps int64
	// StopWhen, if non-nil, is evaluated once before the first event and
	// after every event; returning true ends the run.
	StopWhen func(st chem.State, t float64) bool
	// OnEvent, if non-nil, observes every fired event. The state slice is
	// live and must not be mutated or retained.
	OnEvent func(reaction int, st chem.State, t float64)
}

// RunResult summarises a Run.
type RunResult struct {
	Steps  int64
	Time   float64
	Reason StopReason
}

// settler is implemented by engines that defer part of their state update
// between fired events (the hybrid's owed relay interval).
// settle brings the whole state current at Time().
type settler interface {
	settle()
}

// Run drives eng until a stop condition is met and reports what happened.
// On return the whole state is current at Time(), also for engines that
// defer fast species between events (see Hybrid).
func Run(eng Engine, opts RunOptions) RunResult {
	res := run(eng, opts)
	if s, ok := eng.(settler); ok {
		s.settle()
	}
	return res
}

// run is Run's event loop.
func run(eng Engine, opts RunOptions) RunResult {
	horizon := math.Inf(1)
	if opts.MaxTime > 0 {
		horizon = opts.MaxTime
	}
	var steps int64
	if opts.StopWhen != nil && opts.StopWhen(eng.State(), eng.Time()) {
		return RunResult{Steps: 0, Time: eng.Time(), Reason: StopPredicate}
	}
	for {
		if opts.MaxSteps > 0 && steps >= opts.MaxSteps {
			return RunResult{Steps: steps, Time: eng.Time(), Reason: StopSteps}
		}
		r, status := eng.Step(horizon)
		switch status {
		case Quiescent:
			return RunResult{Steps: steps, Time: eng.Time(), Reason: StopQuiescent}
		case Horizon:
			return RunResult{Steps: steps, Time: eng.Time(), Reason: StopTime}
		}
		steps++
		if opts.OnEvent != nil {
			opts.OnEvent(r, eng.State(), eng.Time())
		}
		if opts.StopWhen != nil && opts.StopWhen(eng.State(), eng.Time()) {
			return RunResult{Steps: steps, Time: eng.Time(), Reason: StopPredicate}
		}
	}
}
