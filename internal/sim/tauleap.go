package sim

import (
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// TauLeap is an explicit tau-leaping accelerator: it advances the trajectory
// by a leap τ chosen so that no propensity changes by more than a fraction
// Epsilon (Cao–Gillespie–Petzold step-size control: both the mean drift and
// the second moment of each reactant species' change are bounded, so
// opposing high-flux channels whose drifts cancel still constrain τ through
// their variance), firing a Poisson number of each channel per leap. Leaps
// that would drive a count negative are rejected and retried at τ/2; when τ
// collapses below a few exact steps' worth, it falls back to single exact
// firings.
//
// Tau-leaping is approximate: it trades distributional exactness for speed
// on networks with large counts. The library uses it for mean-field sanity
// sweeps, benchmarks, and as the generic batching layer inside Hybrid; all
// reported experiment statistics come from exact or hybrid engines.
//
// A TauLeap compiles the network and allocates all of its scratch state at
// construction; Leap itself is allocation-free.
type TauLeap struct {
	comp    *chem.Compiled
	gen     *rng.PCG
	state   chem.State
	t       float64
	prop    []float64
	Epsilon float64 // relative-change bound per leap (default 0.03)

	// Reusable scratch buffers (hoisted so Leap performs zero allocations).
	counts []int64   // Poisson firings per channel within one attempt
	drift  []float64 // per-species mean change rate Σ a·d
	sigma2 []float64 // per-species change variance rate Σ a·d²
	next   chem.State
	all    []int32 // every compiled channel, ascending: cgpTau's selection
}

// NewTauLeap returns a TauLeap accelerator over net at the default initial
// state.
func NewTauLeap(net *chem.Network, gen *rng.PCG) *TauLeap {
	return NewTauLeapCompiled(chem.Compile(net), gen)
}

// NewTauLeapCompiled returns a TauLeap accelerator over an already-compiled
// kernel.
func NewTauLeapCompiled(comp *chem.Compiled, gen *rng.PCG) *TauLeap {
	tl := &TauLeap{
		comp:    comp,
		gen:     gen,
		prop:    make([]float64, comp.NumChannels()),
		Epsilon: 0.03,
		counts:  make([]int64, comp.NumChannels()),
		drift:   make([]float64, comp.NumSpecies()),
		sigma2:  make([]float64, comp.NumSpecies()),
		next:    make(chem.State, comp.NumSpecies()),
		all:     make([]int32, comp.NumChannels()),
	}
	for c := range tl.all {
		tl.all[c] = int32(c)
	}
	tl.Reset(comp.Network().InitialState(), 0)
	return tl
}

// Network returns the simulated network.
func (tl *TauLeap) Network() *chem.Network { return tl.comp.Network() }

// State returns the live state vector (read-only for callers).
func (tl *TauLeap) State() chem.State { return tl.state }

// Time returns the current simulation time.
func (tl *TauLeap) Time() float64 { return tl.t }

// Reset repositions the accelerator at a copy of state and time t.
//
//stochlint:noalloc
func (tl *TauLeap) Reset(state chem.State, t float64) {
	if len(state) != tl.comp.NumSpecies() {
		panic("sim: state length does not match network species count")
	}
	if tl.state == nil {
		// One-time lazy buffer on the first Reset; every later Reset reuses it.
		tl.state = make(chem.State, len(state)) //stochlint:allow alloc
	}
	copy(tl.state, state)
	tl.t = t
}

// Leap advances by one leap (or one exact event when leaping is not
// profitable), returning the number of reaction firings applied and a step
// status. On Horizon the state is unchanged and time is clamped to horizon.
//
//stochlint:noalloc
func (tl *TauLeap) Leap(horizon float64) (events int64, status StepStatus) {
	comp := tl.comp
	total := comp.PropensitiesInto(tl.state, tl.prop)
	if total <= 0 {
		return 0, Quiescent
	}
	tau := tl.selectTau(total)
	if tl.t+tau > horizon {
		tau = horizon - tl.t
		if tau <= 0 {
			tl.t = horizon
			return 0, Horizon
		}
	}
	// Profitability is judged after the horizon clamp: a clamped tiny τ
	// batches almost nothing but would still pay a full round of Poisson
	// draws, so it falls through to a single exact step (which handles the
	// horizon itself, exactly).
	if tau*total < 10 {
		return tl.exactStep(total, horizon)
	}
	// Try the leap, halving tau on any negative excursion.
	for attempt := 0; attempt < 30; attempt++ {
		var n int64
		for c, a := range tl.prop {
			if a > 0 {
				tl.counts[c] = tl.gen.Poisson(a * tau)
				n += tl.counts[c]
			} else {
				tl.counts[c] = 0
			}
		}
		if tl.applyIfNonNegative(tl.counts) {
			tl.t += tau
			return n, Fired
		}
		tau /= 2
		if tau*total < 10 {
			return tl.exactStep(total, horizon)
		}
	}
	return tl.exactStep(total, horizon)
}

// selectTau bounds both the expected change and the variance of the change
// of every reactant species over one leap. A τ of +Inf (nothing
// constrains the leap) falls back to one mean event time.
func (tl *TauLeap) selectTau(total float64) float64 {
	tau := cgpTau(tl.comp, tl.prop, tl.state, tl.Epsilon, tl.drift, tl.sigma2, tl.all, tl.all)
	if math.IsInf(tau, 1) {
		tau = 1 / total
	}
	return tau
}

// cgpTau is the Cao–Gillespie–Petzold step-size control shared by TauLeap
// and Hybrid (Cao, Gillespie & Petzold 2006, Eq. 33): τ = min over the
// reactant species s of every channel in bounds of
//
//	max(εx_s, 1) / |Σ_j a_j·d_js|   and   max(εx_s, 1)² / Σ_j a_j·d_js²,
//
// with the drift and variance sums running over the channels in contributes
// with positive propensity, over the compiled kernel's CSR delta and
// reactant rows. Both lists hold compiled channel indices in ascending
// order, so the per-species sums fold in channel order. The second bound
// matters precisely when the first is loose: opposing high-flux channels (a
// production clock against a decay) cancel to |drift| ≈ 0, but their
// fluctuations still scatter the species count by √(σ²τ) per leap, which
// without the variance bound would blow far past the ε target. drift and
// sigma2 are caller-owned scratch, overwritten here. Returns +Inf when no
// selected channel constrains τ.
func cgpTau(comp *chem.Compiled, prop []float64, state chem.State,
	eps float64, drift, sigma2 []float64, contributes, bounds []int32) float64 {
	for s := range drift {
		drift[s] = 0
		sigma2[s] = 0
	}
	for _, c := range contributes {
		a := prop[c]
		if a <= 0 {
			continue
		}
		for k := comp.DeltaStart[c]; k < comp.DeltaStart[c+1]; k++ {
			s := comp.DeltaSpecies[k]
			fd := float64(comp.DeltaCoeff[k])
			drift[s] += a * fd
			sigma2[s] += a * fd * fd
		}
	}
	tau := math.Inf(1)
	for _, c := range bounds {
		for k := comp.ReactStart[c]; k < comp.ReactStart[c+1]; k++ {
			s := comp.ReactSpecies[k]
			if sigma2[s] == 0 {
				continue // no selected channel changes s
			}
			bound := math.Max(eps*float64(state[s]), 1)
			if d := math.Abs(drift[s]); d > 0 {
				if cand := bound / d; cand < tau {
					tau = cand
				}
			}
			if cand := bound * bound / sigma2[s]; cand < tau {
				tau = cand
			}
		}
	}
	return tau
}

func (tl *TauLeap) applyIfNonNegative(counts []int64) bool {
	comp := tl.comp
	copy(tl.next, tl.state)
	for c, k := range counts {
		if k == 0 {
			continue
		}
		for j := comp.DeltaStart[c]; j < comp.DeltaStart[c+1]; j++ {
			tl.next[comp.DeltaSpecies[j]] += comp.DeltaCoeff[j] * k
		}
	}
	if !tl.next.NonNegative() {
		return false
	}
	copy(tl.state, tl.next)
	return true
}

func (tl *TauLeap) exactStep(total, horizon float64) (int64, StepStatus) {
	tNext := tl.t + tl.gen.Exp(total)
	if tNext > horizon {
		tl.t = horizon
		return 0, Horizon
	}
	target := tl.gen.Float64() * total
	acc := 0.0
	for c, a := range tl.prop {
		acc += a
		if target < acc {
			tl.t = tNext
			tl.comp.Apply(c, tl.state)
			return 1, Fired
		}
	}
	for c := len(tl.prop) - 1; c >= 0; c-- {
		if tl.prop[c] > 0 {
			tl.t = tNext
			tl.comp.Apply(c, tl.state)
			return 1, Fired
		}
	}
	return 0, Quiescent
}

// RunTau drives the accelerator until a time horizon or quiescence and
// returns the total number of reaction firings applied.
func RunTau(tl *TauLeap, maxTime float64) int64 {
	var events int64
	for {
		n, status := tl.Leap(maxTime)
		events += n
		if status != Fired {
			return events
		}
	}
}
