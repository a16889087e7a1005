package sim

import (
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// Direct is Gillespie's direct method: each step draws an exponential
// waiting time from the total propensity and selects the firing channel in
// proportion to the individual propensities. All propensities are recomputed
// from scratch every step over the compiled kernel's flat channel arrays,
// which is exact and, for the narrow networks this library synthesises
// (tens of channels), usually fastest in practice.
type Direct struct {
	comp  *chem.Compiled
	gen   *rng.PCG
	state chem.State
	t     float64
	prop  []float64 // scratch propensity vector, compiled channel order
	sums  []float64 // per-block partial sums; nil below chem.BlockThreshold
}

// NewDirect returns a Direct engine over net, positioned at the network's
// default initial state at time zero. The network is compiled once
// (chem.Compile) at construction and shared across every Reset.
func NewDirect(net *chem.Network, gen *rng.PCG) *Direct {
	return NewDirectCompiled(chem.Compile(net), gen)
}

// NewDirectCompiled returns a Direct engine over an already-compiled
// kernel, sharing it with the caller (and any sibling engines) instead of
// recompiling.
func NewDirectCompiled(comp *chem.Compiled, gen *rng.PCG) *Direct {
	d := &Direct{
		comp:  comp,
		gen:   gen,
		state: chem.NewHotVec[int64](comp.NumSpecies()),
		prop:  chem.NewHotVec[float64](comp.NumChannels()),
	}
	if nb := comp.NumSelectBlocks(); nb > 0 {
		d.sums = chem.NewHotVec[float64](nb)
	}
	d.Reset(comp.Network().InitialState(), 0)
	return d
}

// Network returns the simulated network.
func (d *Direct) Network() *chem.Network { return d.comp.Network() }

// State returns the live state vector (read-only for callers).
func (d *Direct) State() chem.State { return d.state }

// Time returns the current simulation time.
func (d *Direct) Time() float64 { return d.t }

// Reset repositions the engine at a copy of state and time t.
func (d *Direct) Reset(state chem.State, t float64) {
	if len(state) != d.comp.NumSpecies() {
		panic("sim: state length does not match network species count")
	}
	copy(d.state, state)
	d.t = t
}

// Step implements Engine.
//
//stochlint:noalloc
func (d *Direct) Step(horizon float64) (int, StepStatus) {
	comp := d.comp
	var total float64
	if d.sums != nil {
		total = comp.PropensitiesBlocksInto(d.state, d.prop, d.sums)
	} else {
		total = comp.PropensitiesInto(d.state, d.prop)
	}
	if total <= 0 {
		return -1, Quiescent
	}
	tNext := d.t + d.gen.Exp(total)
	if tNext > horizon {
		d.t = horizon
		return -1, Horizon
	}
	d.t = tNext
	// Channel selection: linear scan of the cumulative propensities (the
	// compile-time propensity-descending ordering makes it terminate early
	// on skewed networks), or the O(√M) two-level scan when the kernel
	// carries selection blocks (chem.BlockThreshold).
	target := d.gen.Float64() * total
	if d.sums != nil {
		if c := comp.SelectBlock(d.prop, d.sums, target); c >= 0 {
			comp.Apply(c, d.state)
			return int(comp.Perm[c]), Fired
		}
	} else {
		acc := 0.0
		for c, a := range d.prop {
			acc += a
			if target < acc {
				comp.Apply(c, d.state)
				return int(comp.Perm[c]), Fired
			}
		}
	}
	// Floating-point slack: fire the last channel with positive propensity.
	for c := len(d.prop) - 1; c >= 0; c-- {
		if d.prop[c] > 0 {
			comp.Apply(c, d.state)
			return int(comp.Perm[c]), Fired
		}
	}
	return -1, Quiescent // unreachable: total > 0 implies a positive channel
}

// OptimizedDirect is the direct method with incremental propensity
// maintenance: the compiled kernel's CSR dependency graph restricts
// recomputation after each firing to the affected channels, and the total
// propensity is maintained as a running sum (renormalised periodically to
// bound floating-point drift). It is exact and asymptotically faster than
// Direct on wide networks.
type OptimizedDirect struct {
	comp    *chem.Compiled
	gen     *rng.PCG
	state   chem.State
	t       float64
	prop    []float64
	sums    []float64 // per-block partial sums; nil below chem.BlockThreshold
	total   float64
	stale   int // steps since last full recomputation
	refresh int // full recomputation period
}

// NewOptimizedDirect returns an OptimizedDirect engine over net at the
// default initial state.
//
// Construction compiles the network once (flat term arrays, CSR dependency
// graph); Reset does not recompile, so one engine can be reused across many
// Monte Carlo trials (see mc.RunWith) with only an O(channels) propensity
// refresh per trial.
func NewOptimizedDirect(net *chem.Network, gen *rng.PCG) *OptimizedDirect {
	return NewOptimizedDirectCompiled(chem.Compile(net), gen)
}

// NewOptimizedDirectCompiled returns an OptimizedDirect engine over an
// already-compiled kernel, sharing it instead of recompiling.
func NewOptimizedDirectCompiled(comp *chem.Compiled, gen *rng.PCG) *OptimizedDirect {
	o := &OptimizedDirect{
		comp: comp,
		gen:  gen,
		// The state vector is the kernel's extended form: species counts
		// plus a trailing phantom slot holding the constant 1 that the
		// packed refresh programs read (see chem.Compiled.NewStateVec).
		state:   comp.NewStateVec(),
		prop:    chem.NewHotVec[float64](comp.NumChannels()),
		refresh: 4096,
	}
	if nb := comp.NumSelectBlocks(); nb > 0 {
		o.sums = chem.NewHotVec[float64](nb)
	}
	o.Reset(comp.Network().InitialState(), 0)
	return o
}

// Network returns the simulated network.
func (o *OptimizedDirect) Network() *chem.Network { return o.comp.Network() }

// State returns the live state vector (read-only for callers).
func (o *OptimizedDirect) State() chem.State { return o.state[:o.comp.NumSpecies()] }

// Time returns the current simulation time.
func (o *OptimizedDirect) Time() float64 { return o.t }

// Reset repositions the engine at a copy of state and time t and rebuilds
// the propensity cache.
func (o *OptimizedDirect) Reset(state chem.State, t float64) {
	if len(state) != o.comp.NumSpecies() {
		panic("sim: state length does not match network species count")
	}
	copy(o.state, state) // the trailing phantom slot stays 1
	o.t = t
	o.recomputeAll()
}

func (o *OptimizedDirect) recomputeAll() {
	if o.sums != nil {
		// Wide kernels renormalise to the canonical block-fold total so
		// every full-refresh path (this one and the fused races) lands on
		// bitwise the same value.
		o.total = o.comp.PropensitiesBlocksInto(o.state, o.prop, o.sums)
	} else {
		o.total = o.comp.PropensitiesInto(o.state, o.prop)
	}
	o.stale = 0
}

// selectChannel picks the firing channel for a cumulative target on the
// engine's cached propensities: the flat fold-left scan on narrow kernels
// (the historical, stream-pinned semantics), the two-level block scan on
// wide ones. -1 means cached-total drift; callers recompute and retry.
//
//stochlint:noalloc
func (o *OptimizedDirect) selectChannel(target float64) int {
	if o.sums != nil {
		return o.comp.SelectBlock(o.prop, o.sums, target)
	}
	acc := 0.0
	for c, a := range o.prop {
		acc += a
		if target < acc {
			return c
		}
	}
	return -1
}

// Step implements Engine.
//
//stochlint:noalloc
func (o *OptimizedDirect) Step(horizon float64) (int, StepStatus) {
	if o.total <= 1e-300 { // fully drained (or drifted to noise): recheck exactly
		o.recomputeAll()
		if o.total <= 0 {
			return -1, Quiescent
		}
	}
	tNext := o.t + o.gen.Exp(o.total)
	if tNext > horizon {
		o.t = horizon
		return -1, Horizon
	}
	target := o.gen.Float64() * o.total
	fired := o.selectChannel(target)
	if fired < 0 {
		// Drift artifact: the cached total exceeded the true sum. Recompute
		// from scratch and retry once. The waiting time must be redrawn
		// too: the stale draw came from an inflated total propensity, so
		// keeping it would bias this step's holding time short and break
		// exactness. (Discarding the stale draw is sound — an Exp sample
		// from the wrong rate carries no information about the right one.)
		o.recomputeAll()
		if o.total <= 0 {
			return -1, Quiescent
		}
		tNext = o.t + o.gen.Exp(o.total)
		if tNext > horizon {
			o.t = horizon
			return -1, Horizon
		}
		target = o.gen.Float64() * o.total
		fired = o.selectChannel(target)
		if fired < 0 {
			return -1, Quiescent
		}
	}
	o.t = tNext
	comp := o.comp
	o.total = comp.FireAndRefresh(fired, o.state, o.prop, o.total)
	if o.sums != nil {
		comp.RefreshBlockSums(fired, o.prop, o.sums)
	}
	o.stale++
	if o.stale >= o.refresh || o.total < 0 {
		o.recomputeAll()
	}
	return int(comp.Perm[fired]), Fired
}

// FirstReaction is Gillespie's first-reaction method: each step draws a
// tentative exponential firing time for every channel and fires the
// earliest. It is exact but consumes M exponentials per event, so it is
// mostly useful as a cross-validation oracle whose randomness usage is
// completely different from Direct's.
type FirstReaction struct {
	comp  *chem.Compiled
	gen   *rng.PCG
	state chem.State
	t     float64
}

// NewFirstReaction returns a FirstReaction engine over net at the default
// initial state.
func NewFirstReaction(net *chem.Network, gen *rng.PCG) *FirstReaction {
	return NewFirstReactionCompiled(chem.Compile(net), gen)
}

// NewFirstReactionCompiled returns a FirstReaction engine over an
// already-compiled kernel.
func NewFirstReactionCompiled(comp *chem.Compiled, gen *rng.PCG) *FirstReaction {
	f := &FirstReaction{comp: comp, gen: gen, state: chem.NewHotVec[int64](comp.NumSpecies())}
	f.Reset(comp.Network().InitialState(), 0)
	return f
}

// Network returns the simulated network.
func (f *FirstReaction) Network() *chem.Network { return f.comp.Network() }

// State returns the live state vector (read-only for callers).
func (f *FirstReaction) State() chem.State { return f.state }

// Time returns the current simulation time.
func (f *FirstReaction) Time() float64 { return f.t }

// Reset repositions the engine at a copy of state and time t.
func (f *FirstReaction) Reset(state chem.State, t float64) {
	if len(state) != f.comp.NumSpecies() {
		panic("sim: state length does not match network species count")
	}
	copy(f.state, state)
	f.t = t
}

// Step implements Engine.
func (f *FirstReaction) Step(horizon float64) (int, StepStatus) {
	comp := f.comp
	best := -1
	bestTau := math.Inf(1)
	for c := 0; c < comp.NumChannels(); c++ {
		a := comp.Propensity(c, f.state)
		if a <= 0 {
			continue
		}
		tau := f.gen.Exp(a)
		if tau < bestTau {
			bestTau = tau
			best = c
		}
	}
	if best < 0 {
		return -1, Quiescent
	}
	if f.t+bestTau > horizon {
		f.t = horizon
		return -1, Horizon
	}
	f.t += bestTau
	comp.Apply(best, f.state)
	return int(comp.Perm[best]), Fired
}
