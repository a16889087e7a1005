package sim

import (
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// Hybrid is an exact engine that batches relays: channels are classified
// (chem.NewPartition) into relays — stretches of high-throughput linear
// first-order kinetics — and everything else, which steps as one exact
// next-event race.
//
// Relays (chem.Relay) are immigration–death processes on one species, like
// the synthesised logarithm module's b → b + a clock and its a → ∅
// partner. While every catalytic reader of a relay is blocked, the relay is
// active: its channels leave the race and its species advances with the
// exact closed-form transient law, Poisson births thinned by exponential
// survival (see propagate). Any other shape, a conversion chain a → b → ∅
// included, steps in the exact race.
//
// Relays are settled lazily. Nothing outside an active relay reads its
// species, so each step only adds its elapsed time to an owed interval,
// and the transient law is drawn once over all of it: just before a
// relay's activity or inflow changes, before any Step that does not return
// Fired, and when Run or RunThresholdRace returns. With constant inflow the
// law composes over consecutive intervals, so this is exact in
// distribution.
//
// RunThresholdRace drives a Hybrid through its own loop, which runs Step's
// event body and draws exactly what Run over Step draws, waiting times
// included, so Time advances over a hybrid race.
//
// Exactness: the hybrid is exact in distribution on every network. With no
// relay active it steps exactly as Direct does on narrow kernels, draw for
// draw: the same waiting time, the same fired channel, the same state.
// Protected species are never relay species, so they are written by exact
// steps only.
//
// Engine-contract deviations, all deliberate:
//
//   - On Horizon, relay species have advanced to the horizon (exact engines
//     leave the state untouched). The relay law is Markov, so continued
//     stepping remains correct; observers see relay counts at the times
//     they look, which is what time-grid ensembles need.
//   - A state whose remaining activity is all relay-internal (e.g. a clock
//     ticking into a drain that no race channel can ever read) reports
//     Quiescent under an infinite horizon: the race is frozen forever,
//     even though Direct would burn events indefinitely.
//   - After a Fired step, State shows relay species as of the last
//     settlement, not at Time. Protected species are never relay species,
//     and a blocked dependent has zero propensity whatever the relay
//     count, so no exact channel reads the stale counts. Run and
//     RunThresholdRace settle before they return.
//
// Step reports only exact firings (the decision events); relay firings are
// tallied in FastEvents. Internally the engine runs on the compiled kernel
// (chem.Compiled), with the partition's reaction indices remapped onto
// compiled channels at construction. Like every engine here, a Hybrid is
// deterministic given a seeded generator and not safe for concurrent use.
type Hybrid struct {
	comp  *chem.Compiled
	gen   *rng.PCG
	part  *chem.Partition
	state chem.State // extended vector (chem.Compiled.NewStateVec)
	t     float64

	// Partition data remapped into compiled channel indices.
	relayProds     [][]int32 // per relay: constant-propensity producers
	relayDeps      [][]int32 // per relay: catalytic dependent channels
	relayActive    []bool
	relayLam       []float64 // per relay: summed producer propensity
	relayOfChannel []int     // channel → owning relay index, or -1
	isRelaySpecies []bool    // species owned by a relay

	// prop is kept current incrementally: Reset recomputes every
	// propensity, an exact firing refreshes its dependency row as it fires
	// (fire), and a settlement marks the readers of relay species stale,
	// which refresh recomputes before reading prop (applyPending).
	prop         []float64
	pendingRelay bool    // relay species moved: relayReaders are stale
	relayReaders []int32 // channels with a reactant owned by a relay

	// Relay activity and inflow are re-derived only when a gating input may
	// have moved: a non-relay reactant of a relay dependent, or any reactant
	// of a relay producer. movesGating marks the channels whose firing
	// net-changes one; pendingGating is set by such a firing and by Reset.
	// Settlements move only relay species, which no gating input is.
	movesGating   []bool
	pendingGating bool

	// liveChans are the channels no active relay handles, in ascending
	// compiled order, so the race total folds in the order of a full
	// channel scan. Rebuilt only when relay activity changes. cum[i] is
	// the fold through liveChans[i], stored by refresh for pickExact.
	liveChans []int32
	cum       []float64

	// owed is the time the active relays have not yet been advanced over.
	// Each step adds its elapsed time; settle draws the transient law once
	// over the whole interval (see settle).
	owed       float64
	fastEvents int64

	// Deterministic work counters since the last Reset.
	propEvals    int64
	propagations int64
	gatingScans  int64
}

// NewHybrid returns a Hybrid engine over net at the default initial state.
// protected lists the outcome/threshold species whose distribution an
// experiment measures; no relay owns them or their immediate propensity
// inputs. The network is compiled and the partition derived once at
// construction, so one engine can be reused across Monte Carlo trials.
func NewHybrid(net *chem.Network, protected []chem.Species, gen *rng.PCG) *Hybrid {
	return NewHybridCompiled(chem.Compile(net), protected, gen)
}

// NewHybridCompiled returns a Hybrid engine over an already-compiled
// kernel, sharing it instead of recompiling. The partition is still derived
// per engine (it depends on the protected set, not only the network).
func NewHybridCompiled(comp *chem.Compiled, protected []chem.Species, gen *rng.PCG) *Hybrid {
	net := comp.Network()
	h := &Hybrid{
		comp:      comp,
		gen:       gen,
		part:      chem.NewPartition(net, protected),
		state:     comp.NewStateVec(),
		prop:      chem.NewHotVec[float64](comp.NumChannels()),
		liveChans: make([]int32, 0, comp.NumChannels()),
		cum:       chem.NewHotVec[float64](comp.NumChannels()),
	}
	// Remap the partition's original reaction indices onto compiled
	// channels once, so the hot loops never translate.
	n := len(h.part.Relays)
	h.relayActive = make([]bool, n)
	h.relayLam = make([]float64, n)
	h.relayProds = make([][]int32, n)
	h.relayDeps = make([][]int32, n)
	h.isRelaySpecies = make([]bool, comp.NumSpecies())
	h.relayOfChannel = make([]int, comp.NumChannels())
	for c := range h.relayOfChannel {
		h.relayOfChannel[c] = -1
	}
	for k := range h.part.Relays {
		r := &h.part.Relays[k]
		h.isRelaySpecies[r.A] = true
		for _, i := range r.Producers {
			h.relayProds[k] = append(h.relayProds[k], comp.Channel[i])
			h.relayOfChannel[comp.Channel[i]] = k
		}
		for _, i := range r.Sinks {
			h.relayOfChannel[comp.Channel[i]] = k
		}
		for _, i := range r.Dependents {
			h.relayDeps[k] = append(h.relayDeps[k], comp.Channel[i])
		}
	}
	for c := 0; c < comp.NumChannels(); c++ {
		for k := comp.ReactStart[c]; k < comp.ReactStart[c+1]; k++ {
			if h.isRelaySpecies[comp.ReactSpecies[k]] {
				h.relayReaders = append(h.relayReaders, int32(c))
				break
			}
		}
	}
	gating := make([]bool, comp.NumSpecies()) // the gating inputs (movesGating)
	for k := range h.part.Relays {
		for _, dep := range h.relayDeps[k] {
			for j := comp.ReactStart[dep]; j < comp.ReactStart[dep+1]; j++ {
				if sp := comp.ReactSpecies[j]; !h.isRelaySpecies[sp] {
					gating[sp] = true
				}
			}
		}
		for _, pr := range h.relayProds[k] {
			for j := comp.ReactStart[pr]; j < comp.ReactStart[pr+1]; j++ {
				gating[comp.ReactSpecies[j]] = true
			}
		}
	}
	h.movesGating = make([]bool, comp.NumChannels())
	for c := range h.movesGating {
		for _, ins := range comp.FireDelta[comp.FireDeltaStart[c]:comp.FireDeltaStart[c+1]] {
			if gating[ins.S] {
				h.movesGating[c] = true
				break
			}
		}
	}
	h.buildLive() // every relay starts inactive
	h.Reset(net.InitialState(), 0)
	return h
}

// Network returns the simulated network.
func (h *Hybrid) Network() *chem.Network { return h.comp.Network() }

// State returns the live state vector (read-only for callers).
func (h *Hybrid) State() chem.State { return h.state[:h.comp.NumSpecies()] }

// Time returns the current simulation time.
func (h *Hybrid) Time() float64 { return h.t }

// FastEvents returns the cumulative number of relay firings since the last
// Reset — the events an exact engine would have stepped one by one.
func (h *Hybrid) FastEvents() int64 { return h.fastEvents }

// PropensityEvals returns the number of single-channel propensity
// evaluations since the last Reset: Reset's full recompute (NumChannels),
// each exact firing's dependency row, evaluated as it fires (the last
// firing's row included), and the readers of relay species after each
// settlement. Like every counter here it is an exact function of the seed.
func (h *Hybrid) PropensityEvals() int64 { return h.propEvals }

// Propagations returns the number of analytic relay settlements since the
// last Reset: settlements of a positive owed interval while at least one
// relay was active.
func (h *Hybrid) Propagations() int64 { return h.propagations }

// GatingScans returns the number of relay activity and inflow
// re-derivations since the last Reset: one at the first refresh after
// Reset, and one after each exact firing that moves a gating input.
func (h *Hybrid) GatingScans() int64 { return h.gatingScans }

// Partition exposes the derived channel partition (read-only, in original
// reaction indices).
func (h *Hybrid) Partition() *chem.Partition { return h.part }

// Reset repositions the engine at a copy of state and time t, recomputing
// every propensity, dropping any owed relay interval and marking relay
// activity for re-derivation.
func (h *Hybrid) Reset(state chem.State, t float64) {
	if len(state) != h.comp.NumSpecies() {
		panic("sim: state length does not match network species count")
	}
	copy(h.state, state) // the trailing phantom slot stays 1
	h.t = t
	h.owed = 0
	h.fastEvents = 0
	h.comp.PropensitiesInto(h.State(), h.prop)
	h.propEvals, h.propagations, h.gatingScans = int64(len(h.prop)), 0, 0
	h.pendingRelay, h.pendingGating = false, true
}

// applyPending re-evaluates the readers of relay species after a
// settlement moved them. Exact firings refresh their own dependents (fire),
// and settlements move only relay species, so afterwards prop equals what
// a full recompute would produce: Compiled.Propensity is bit-for-bit
// PropensitiesInto's per-channel value.
//
//stochlint:noalloc
func (h *Hybrid) applyPending() {
	if !h.pendingRelay {
		return
	}
	h.pendingRelay = false
	st := h.State()
	for _, c := range h.relayReaders {
		h.prop[c] = h.comp.Propensity(int(c), st)
	}
	h.propEvals += int64(len(h.relayReaders))
}

// refresh brings propensities up to date and, when a gating input may have
// moved (pendingGating), re-derives relay activity, returning the race
// total: one fold over the live channels in ascending compiled order,
// whose running values it stores in cum. Skipping the re-derivation
// otherwise is bitwise: with its inputs unchanged it would recompute the
// stored values and settle nothing.
//
//stochlint:noalloc
func (h *Hybrid) refresh() (total float64) {
	h.applyPending()
	if h.pendingGating {
		h.deriveRelays()
	}
	cum := h.cum[:len(h.liveChans)]
	for i, c := range h.liveChans {
		total += h.prop[c]
		cum[i] = total
	}
	return total
}

// deriveRelays re-derives every relay's activity and inflow from current
// propensities. The owed interval ran under the stored activity and rates,
// so it is settled before the first of them is overwritten.
//
//stochlint:noalloc
func (h *Hybrid) deriveRelays() {
	h.pendingGating = false
	h.gatingScans++
	// A relay is analytic only while each catalytic dependent is blocked by
	// a missing non-relay reactant: then the dependent cannot fire no
	// matter how the relay counts evolve, and nothing outside the relay
	// reads its species.
	changed := false
	for k := range h.part.Relays {
		active := true
		for _, dep := range h.relayDeps[k] {
			if !h.blocked(int(dep)) {
				active = false
				break
			}
		}
		lam := 0.0
		if active {
			for _, pr := range h.relayProds[k] {
				lam += h.prop[pr]
			}
		}
		if active != h.relayActive[k] || lam != h.relayLam[k] {
			h.settle()
			changed = changed || active != h.relayActive[k]
			h.relayActive[k], h.relayLam[k] = active, lam
		}
	}
	// A settlement moved relay species: bring their readers current
	// before the race total reads them.
	h.applyPending()
	if changed {
		h.buildLive()
	}
}

// buildLive lists the channels not handled by an active relay, in
// ascending compiled order. The list reuses its construction-time
// capacity.
//
//stochlint:noalloc
func (h *Hybrid) buildLive() {
	live := h.liveChans[:cap(h.liveChans)]
	n := 0
	for c, k := range h.relayOfChannel {
		if k >= 0 && h.relayActive[k] {
			continue // advanced analytically by its relay
		}
		live[n] = int32(c)
		n++
	}
	h.liveChans = live[:n]
}

// fire applies compiled channel c, refreshes the propensities of its
// dependency row, marks relay activity stale if c moves a gating input,
// and returns the original reaction index.
//
// The refresh is chem.Compiled.FireAndRefresh without the running total,
// inlined as in OptimizedDirect.raceThresholds: the packed records read the
// pre-fire state with the fired channel's deltas baked in, the delta
// applies, and the rare tail dependents recompute on the post-fire state.
// The records reproduce Compiled.Propensity bit for bit (chem.RefreshInstr).
// Nothing but a settlement moves the state before the next refresh, and
// applyPending recomputes the readers of what it moves, so prop equals a
// full recompute whenever refresh folds it. TestRaceRefreshLockstep pins
// the copy.
//
//stochlint:noalloc
func (h *Hybrid) fire(c int) int {
	comp, st, prop := h.comp, h.state, h.prop
	refs := comp.Refs[comp.RefStart[c]:comp.RefStart[c+1]]
	tails := comp.Tails[comp.TailStart[c]:comp.TailStart[c+1]]
	for _, ins := range refs {
		xA := st[ins.S1] + int64(ins.DA)
		xB := st[ins.S2] + int64(ins.DB)
		fA := xA + int64(ins.Dim)*(xA*(xA-1)>>1-xA)
		prop[ins.J] = (ins.Rate * float64(fA)) * float64(xB)
	}
	for _, ins := range comp.FireDelta[comp.FireDeltaStart[c]:comp.FireDeltaStart[c+1]] {
		st[ins.S] += ins.D
	}
	for _, ins := range tails {
		prop[ins.J] = comp.Propensity(int(ins.J), st)
	}
	h.propEvals += int64(len(refs) + len(tails))
	if h.movesGating[c] {
		h.pendingGating = true
	}
	return int(comp.Perm[c])
}

// blocked reports whether channel c lacks some reactant that is no relay
// species (a relay count can rise spontaneously during analytic
// propagation, so it can never be trusted to keep a dependent blocked).
func (h *Hybrid) blocked(c int) bool {
	comp := h.comp
	for k := comp.ReactStart[c]; k < comp.ReactStart[c+1]; k++ {
		sp := comp.ReactSpecies[k]
		if h.isRelaySpecies[sp] {
			continue
		}
		if h.state[sp] < comp.ReactCoeff[k] {
			return true
		}
	}
	return false
}

// Step implements Engine: one exact next-event race over the live
// channels, whose waiting time is owed to the active relays. Every return
// other than Fired settles the owed interval. raceThresholds runs the same
// event body with the infinite horizon specialised away.
//
//stochlint:noalloc
func (h *Hybrid) Step(horizon float64) (int, StepStatus) {
	total := h.refresh()
	if total <= 0 {
		// Only relay-internal activity (possibly none) remains; the race
		// is frozen.
		if math.IsInf(horizon, 1) {
			return h.halt(Quiescent)
		}
		return h.clamp(horizon)
	}
	dt := h.gen.Exp(total)
	if h.t+dt > horizon {
		return h.clamp(horizon)
	}
	h.owed += dt
	h.t += dt
	fired := h.pickExact(total)
	if fired < 0 {
		return h.halt(Quiescent) // unreachable: total > 0
	}
	return h.fire(fired), Fired
}

// raceThresholds implements thresholdRacer for Hybrid: Run's control flow
// with Step inlined and the infinite horizon specialised away. Unlike the
// direct engines' jump-chain races it keeps the waiting-time draw, which
// the active relays advance over, and it settles at every return, as Run
// does.
//
//stochlint:noalloc
func (h *Hybrid) raceThresholds(ths []SpeciesThreshold, maxSteps int64) RunResult {
	var buf [8]SpeciesThreshold
	ths = localThresholds(&buf, ths)
	st := h.State()
	var steps int64
	reason := StopPredicate
	for !reached(st, ths) {
		if maxSteps > 0 && steps >= maxSteps {
			reason = StopSteps
			break
		}
		total := h.refresh()
		if total <= 0 {
			reason = StopQuiescent
			break
		}
		dt := h.gen.Exp(total)
		h.owed += dt
		h.t += dt
		fired := h.pickExact(total)
		if fired < 0 {
			reason = StopQuiescent // unreachable: total > 0
			break
		}
		h.fire(fired)
		steps++
	}
	h.settle()
	return RunResult{Steps: steps, Time: h.t, Reason: reason}
}

// pickExact selects a live channel in proportion to the current
// propensities, or -1 if none is positive, reading the prefix sums refresh
// stored for total. The result is a compiled channel index: the first live
// channel whose prefix sum exceeds the target. No propensity is negative
// and a zero term leaves the fold unchanged, so that channel has a
// positive propensity.
//
//stochlint:noalloc
func (h *Hybrid) pickExact(total float64) int {
	target := h.gen.Float64() * total
	live := h.liveChans
	for i, acc := range h.cum[:len(live)] {
		if target < acc {
			return int(live[i])
		}
	}
	// Floating-point slack: the last live channel with positive propensity.
	for i := len(live) - 1; i >= 0; i-- {
		if c := live[i]; h.prop[c] > 0 {
			return int(c)
		}
	}
	return -1
}

// clamp advances the clock to horizon, owing the relays the remaining
// interval, and settles: a Horizon step leaves every species current at
// the horizon.
//
//stochlint:noalloc
func (h *Hybrid) clamp(horizon float64) (int, StepStatus) {
	if rem := horizon - h.t; rem > 0 {
		h.owed += rem
	}
	h.t = horizon
	return h.halt(Horizon)
}

// halt settles the owed interval and reports a step that fired nothing.
//
//stochlint:noalloc
func (h *Hybrid) halt(status StepStatus) (int, StepStatus) {
	h.settle()
	return -1, status
}

// settle advances every active relay over the owed interval, under the
// activity and rates stored for it, and clears the debt. The stored values
// held for the whole interval, and the immigration–death transients compose
// over consecutive intervals (Chapman–Kolmogorov), so one draw has the law
// of a draw per step.
//
//stochlint:noalloc
func (h *Hybrid) settle() {
	dt := h.owed
	if dt <= 0 {
		return
	}
	h.owed = 0
	if h.propagate(dt) {
		h.propagations++
	}
}

// propagate advances every active relay over dt with the exact
// immigration–death transient under frozen externals, and reports whether
// any relay was active. With inflow λ and per-molecule death hazard μ, it
// draws Poisson(λ·dt) births, Binomial survivors of the standing count at
// e^{−μ·dt}, and Binomial survivors of the births at the uniform-arrival
// probability (1 − e^{−μ·dt})/(μ·dt). Every draw is exact (pinned by the
// chi-square suites in hybrid_test.go and hybrid_settle_test.go).
//
// FastEvents counts each birth and each death as one firing. It is
// telemetry, equal in distribution wherever the trajectory is cut into
// settled intervals.
//
//stochlint:noalloc
func (h *Hybrid) propagate(dt float64) (advanced bool) {
	for k := range h.part.Relays {
		if !h.relayActive[k] {
			continue
		}
		advanced = true
		r := &h.part.Relays[k]
		x, lam := h.state[r.A], h.relayLam[k]
		if x == 0 && lam <= 0 {
			continue
		}
		mdt := r.Mu * dt
		var births, survivors, bornSurvivors int64
		if lam > 0 {
			births = h.gen.Poisson(lam * dt)
		}
		if x > 0 {
			survivors = h.gen.Binomial(x, math.Exp(-mdt))
		}
		if births > 0 {
			bornSurvivors = h.gen.Binomial(births, -math.Expm1(-mdt)/mdt)
		}
		h.state[r.A] = survivors + bornSurvivors
		h.fastEvents += births + (x - survivors) + (births - bornSurvivors)
		h.pendingRelay = true
	}
	return advanced
}
