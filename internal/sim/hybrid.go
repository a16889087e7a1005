package sim

import (
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// Hybrid is a partitioned exact/approximate engine: channels are classified
// (chem.NewPartition) as *slow* — stepped as an exact next-event race — or
// *fast* — batched between slow events. Fast channels come in two kinds:
//
//   - Relays (chem.Relay): one- or two-stage linear first-order catenaries,
//     like the synthesised logarithm module's b → b + a clock and its a → ∅
//     partner, or a conversion chain a → b → ∅. They are advanced with the
//     exact closed-form transient law: Poisson births thinned by sequential
//     exponential survival (see propagate). No approximation at all.
//   - Other fast-eligible channels are tau-leaped with Cao–Gillespie–
//     Petzold step control (cgpTau) — but only while their propensity
//     dwarfs the slow set's (cold fast channels simply join the exact race,
//     which costs nothing and stays exact).
//
// Slow waiting times are conditioned on the frozen-fast propensity
// integral: a unit-exponential budget is spent across leap sub-intervals at
// the slow set's piecewise-frozen total propensity, so fast channels that
// do perturb slow reactants are felt at leap resolution (each leap bounds
// the relative propensity change by ε = 0.03) rather than ignored.
//
// Relays are settled lazily. Nothing outside an active relay reads its
// species, so each step only adds its elapsed time to an owed interval,
// and the transient law is drawn once over all of it: just before a
// relay's activity or inflow changes, before any Step that does not return
// Fired, and when Run returns. With constant inflow the law composes over
// consecutive intervals, so this is exact in distribution.
//
// Exactness: when no fast channel net-changes any reactant of a slow
// channel — true for the synthesised lambda model's hot phases, where the
// only high-throughput channels are the clock/decay relay — the slow
// marginal (and therefore any outcome statistic over protected species) is
// distributed exactly as under Direct. Otherwise the slow marginal is
// ε-accurate per leap. Protected species themselves are always written by
// exact steps only.
//
// Engine-contract deviations, all deliberate:
//
//   - On Horizon, fast species have advanced to the horizon (exact engines
//     leave the state untouched). The relay law and leap chunks are Markov,
//     so continued stepping remains correct; observers see fast counts at
//     the times they look, which is what time-grid ensembles need.
//   - A state whose remaining activity is all relay-internal (e.g. a clock
//     ticking into a drain that no slow channel can ever read) reports
//     Quiescent under an infinite horizon: the slow marginal is frozen
//     forever, even though Direct would burn events indefinitely.
//   - After a Fired step, State shows relay species as of the last
//     settlement, not at Time. Protected species are never relay species,
//     and a blocked dependent has zero propensity whatever the relay
//     count, so no exact channel reads the stale counts. Run (and so
//     RunThresholdRace) settles before it returns.
//
// Step reports only slow/exact firings (the decision events); batched
// firings are tallied in FastEvents. Internally the engine runs on the
// compiled kernel (chem.Compiled), with the partition's reaction indices
// remapped onto compiled channels at construction. Like every engine here,
// a Hybrid is deterministic given a seeded generator and not safe for
// concurrent use.
type Hybrid struct {
	comp  *chem.Compiled
	gen   *rng.PCG
	part  *chem.Partition
	state chem.State
	t     float64

	// epsilon is cgpTau's relative propensity-change bound per leap
	// (defaultEpsilon; in-package tests vary it).
	epsilon float64

	// Partition data remapped into compiled channel indices.
	fastEligible   []bool
	relayProds     [][]int32 // per relay: constant-propensity A producers
	relayBProds    [][]int32 // per relay: constant-propensity direct B producers
	relayDeps      [][]int32 // per relay: catalytic dependent channels
	relayActive    []bool
	relayLamA      []float64 // per relay: summed A-producer propensity
	relayLamB      []float64 // per relay: summed direct-B-producer propensity
	relayOfChannel []int     // channel → owning relay index, or -1
	isRelaySpecies []bool    // species owned by a relay

	// prop is kept current incrementally: state changes record which
	// propensities they made stale, and refresh/refreshExactOnly recompute
	// exactly those before reading prop (applyPending).
	prop         []float64
	pendingFull  bool    // every propensity is stale (after an applied leap chunk)
	pendingFired int     // compiled channel whose dependents are stale, or -1
	pendingRelay bool    // relay species moved: relayReaders are stale
	relayReaders []int32 // channels with a reactant owned by a relay

	// Relay activity and inflow are re-derived only when a gating input may
	// have moved: a non-relay reactant of a relay dependent, or any reactant
	// of a relay producer. movesGating marks the channels whose firing
	// net-changes one; pendingGating is set by such a firing, an applied
	// leap chunk and Reset. Settlements move only relay species, which no
	// gating input is.
	movesGating   []bool
	pendingGating bool

	// Channel classes under the current relay activity pattern, each in
	// ascending compiled order so every sum over them folds in the order of
	// a full channel scan. Rebuilt only when the pattern changes.
	exactChans  []int32 // not relay-handled, not fast-eligible
	leapChans   []int32 // not relay-handled, fast-eligible: the leap pool
	liveChans   []int32 // not relay-handled: exactChans ∪ leapChans
	leapDemoted bool    // this iteration's leap pool joined the exact race

	// owed is the time the active relays have not yet been advanced over.
	// Each step adds its elapsed time; settle draws the transient law once
	// over the whole interval (see settle).
	owed float64

	counts     []int64
	drift      []float64
	sigma2     []float64
	next       chem.State
	fastEvents int64

	// Deterministic work counters since the last Reset.
	fullRecomputes int64
	propEvals      int64
	propagations   int64
	gatingScans    int64
	leapBoundEvals int64
}

const (
	// defaultEpsilon is the relative propensity-change bound per leap.
	defaultEpsilon = 0.03
	// leapFactor is how many times the exact set's total propensity the
	// fast set must reach before generic leaping engages; below it, fast
	// channels are stepped exactly, which is both cheaper and exact.
	leapFactor = 10
)

// NewHybrid returns a Hybrid engine over net at the default initial state.
// protected lists the outcome/threshold species whose distribution must be
// exact; every channel that writes them (or their immediate propensity
// inputs) is pinned to the exact set. The network is compiled and the
// partition derived once at construction, so one engine can be reused
// across Monte Carlo trials.
func NewHybrid(net *chem.Network, protected []chem.Species, gen *rng.PCG) *Hybrid {
	return NewHybridCompiled(chem.Compile(net), protected, gen)
}

// NewHybridCompiled returns a Hybrid engine over an already-compiled
// kernel, sharing it instead of recompiling. The partition is still derived
// per engine (it depends on the protected set, not only the network).
func NewHybridCompiled(comp *chem.Compiled, protected []chem.Species, gen *rng.PCG) *Hybrid {
	net := comp.Network()
	h := &Hybrid{
		comp:       comp,
		gen:        gen,
		part:       chem.NewPartition(net, protected),
		epsilon:    defaultEpsilon,
		prop:       make([]float64, comp.NumChannels()),
		exactChans: make([]int32, 0, comp.NumChannels()),
		leapChans:  make([]int32, 0, comp.NumChannels()),
		liveChans:  make([]int32, 0, comp.NumChannels()),
		counts:     make([]int64, comp.NumChannels()),
		drift:      make([]float64, comp.NumSpecies()),
		sigma2:     make([]float64, comp.NumSpecies()),
		next:       make(chem.State, comp.NumSpecies()),
	}
	// Remap the partition's original reaction indices onto compiled
	// channels once, so the hot loops never translate.
	h.fastEligible = make([]bool, comp.NumChannels())
	for c := range h.fastEligible {
		h.fastEligible[c] = h.part.FastEligible[comp.Perm[c]]
	}
	n := len(h.part.Relays)
	h.relayActive = make([]bool, n)
	h.relayLamA = make([]float64, n)
	h.relayLamB = make([]float64, n)
	h.relayProds = make([][]int32, n)
	h.relayBProds = make([][]int32, n)
	h.relayDeps = make([][]int32, n)
	h.isRelaySpecies = make([]bool, comp.NumSpecies())
	h.relayOfChannel = make([]int, comp.NumChannels())
	for c := range h.relayOfChannel {
		h.relayOfChannel[c] = -1
	}
	for k := range h.part.Relays {
		r := &h.part.Relays[k]
		h.isRelaySpecies[r.A] = true
		if r.B >= 0 {
			h.isRelaySpecies[r.B] = true
		}
		for _, i := range r.Producers {
			h.relayProds[k] = append(h.relayProds[k], comp.Channel[i])
		}
		for _, i := range r.BProducers {
			h.relayBProds[k] = append(h.relayBProds[k], comp.Channel[i])
		}
		for _, set := range [][]int{r.Producers, r.BProducers, r.Convert, r.ASinks, r.BSinks} {
			for _, i := range set {
				h.relayOfChannel[comp.Channel[i]] = k
			}
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
		for _, prods := range [][]int32{h.relayProds[k], h.relayBProds[k]} {
			for _, pr := range prods {
				for j := comp.ReactStart[pr]; j < comp.ReactStart[pr+1]; j++ {
					gating[comp.ReactSpecies[j]] = true
				}
			}
		}
	}
	h.movesGating = make([]bool, comp.NumChannels())
	for c := range h.movesGating {
		for j := comp.DeltaStart[c]; j < comp.DeltaStart[c+1]; j++ {
			if gating[comp.DeltaSpecies[j]] {
				h.movesGating[c] = true
				break
			}
		}
	}
	h.buildClasses() // every relay starts inactive
	h.Reset(net.InitialState(), 0)
	return h
}

// Network returns the simulated network.
func (h *Hybrid) Network() *chem.Network { return h.comp.Network() }

// State returns the live state vector (read-only for callers).
func (h *Hybrid) State() chem.State { return h.state }

// Time returns the current simulation time.
func (h *Hybrid) Time() float64 { return h.t }

// FastEvents returns the cumulative number of batched (relay and leaped)
// firings since the last Reset — the events an exact engine would have
// stepped one by one.
func (h *Hybrid) FastEvents() int64 { return h.fastEvents }

// FullRecomputes returns the number of whole-vector propensity
// recomputes since the last Reset: one at Reset itself, plus one after
// every applied leap chunk.
func (h *Hybrid) FullRecomputes() int64 { return h.fullRecomputes }

// PropensityEvals returns the number of single-channel propensity
// evaluations since the last Reset, full recomputes included (NumChannels
// each). Both counters are exact functions of the seed.
func (h *Hybrid) PropensityEvals() int64 { return h.propEvals }

// Propagations returns the number of analytic relay settlements since the
// last Reset: settlements of a positive owed interval while at least one
// relay was active. Like the other counters it is an exact function of the
// seed.
func (h *Hybrid) Propagations() int64 { return h.propagations }

// GatingScans returns the number of relay activity and inflow
// re-derivations since the last Reset: one at the first refresh after
// Reset, after an applied leap chunk, and after an exact firing that moves
// a gating input.
func (h *Hybrid) GatingScans() int64 { return h.gatingScans }

// LeapBoundEvals returns the number of cgpTau bound candidates evaluated
// since the last Reset: one per reactant of a live channel that the leap
// pool changes, each bounded by its drift and variance terms.
func (h *Hybrid) LeapBoundEvals() int64 { return h.leapBoundEvals }

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
	if h.state == nil {
		h.state = make(chem.State, len(state))
	}
	copy(h.state, state)
	h.t = t
	h.owed = 0
	h.fastEvents = 0
	h.fullRecomputes, h.propEvals, h.propagations = 0, 0, 0
	h.gatingScans, h.leapBoundEvals = 0, 0
	h.pendingFull, h.pendingGating = true, true
	h.applyPending()
}

// applyPending brings prop up to date with the state: a full recompute
// when one is pending, otherwise the dependents of the last exact firing
// and the readers of relay species. Compiled.Propensity is bit-for-bit
// PropensitiesInto's per-channel value, so prop always equals what a full
// recompute would produce.
//
//stochlint:noalloc
func (h *Hybrid) applyPending() {
	if h.pendingFull {
		h.comp.PropensitiesInto(h.state, h.prop)
		h.fullRecomputes++
		h.propEvals += int64(len(h.prop))
		h.pendingFull, h.pendingFired, h.pendingRelay = false, -1, false
		return
	}
	if c := h.pendingFired; c >= 0 {
		h.recompute(h.comp.Deps(c))
		h.pendingFired = -1
	}
	if h.pendingRelay {
		h.recompute(h.relayReaders)
		h.pendingRelay = false
	}
}

// recompute re-evaluates the propensities of chans.
//
//stochlint:noalloc
func (h *Hybrid) recompute(chans []int32) {
	for _, c := range chans {
		h.prop[c] = h.comp.Propensity(int(c), h.state)
	}
	h.propEvals += int64(len(chans))
}

// refresh brings propensities up to date and, when a gating input may have
// moved (pendingGating), re-derives relay activity, returning the exact-set
// and leap-set totals for this iteration. Skipping the re-derivation
// otherwise is bitwise: with its inputs unchanged it would recompute the
// stored values and settle nothing.
//
//stochlint:noalloc
func (h *Hybrid) refresh() (aExact, aLeap float64) {
	h.applyPending()
	if h.pendingGating {
		h.deriveRelays()
	}
	// Fast-eligible channels form the leap pool; whether the pool actually
	// leaps is decided by the caller from the totals.
	h.leapDemoted = false
	for _, c := range h.exactChans {
		aExact += h.prop[c]
	}
	for _, c := range h.leapChans {
		aLeap += h.prop[c]
	}
	return aExact, aLeap
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
		lamA, lamB := 0.0, 0.0
		if active {
			for _, pr := range h.relayProds[k] {
				lamA += h.prop[pr]
			}
			for _, pr := range h.relayBProds[k] {
				lamB += h.prop[pr]
			}
		}
		if active != h.relayActive[k] || lamA != h.relayLamA[k] || lamB != h.relayLamB[k] {
			h.settle()
			changed = changed || active != h.relayActive[k]
			h.relayActive[k], h.relayLamA[k], h.relayLamB[k] = active, lamA, lamB
		}
	}
	// A settlement moved relay species: bring their readers current
	// before the class sums read them.
	h.applyPending()
	if changed {
		h.buildClasses()
	}
}

// buildClasses partitions the channels not handled by an active relay into
// the exact and leap classes, in ascending compiled order. The lists reuse
// their construction-time capacity.
//
//stochlint:noalloc
func (h *Hybrid) buildClasses() {
	exact := h.exactChans[:cap(h.exactChans)]
	leap := h.leapChans[:cap(h.leapChans)]
	live := h.liveChans[:cap(h.liveChans)]
	var ne, nl, nv int
	for c, eligible := range h.fastEligible {
		if k := h.relayOfChannel[c]; k >= 0 && h.relayActive[k] {
			continue // advanced analytically by its relay
		}
		live[nv] = int32(c)
		nv++
		if eligible {
			leap[nl] = int32(c)
			nl++
		} else {
			exact[ne] = int32(c)
			ne++
		}
	}
	h.exactChans, h.leapChans, h.liveChans = exact[:ne], leap[:nl], live[:nv]
}

// raceChans returns the channels the exact race selects among this
// iteration: the exact class, or every live channel once the leap pool
// has been demoted.
func (h *Hybrid) raceChans() []int32 {
	if h.leapDemoted {
		return h.liveChans
	}
	return h.exactChans
}

// fire applies compiled channel c, records its dependents as stale (and
// relay activity, if c moves a gating input), and returns the original
// reaction index.
//
//stochlint:noalloc
func (h *Hybrid) fire(c int) int {
	h.comp.Apply(c, h.state)
	h.pendingFired = c
	if h.movesGating[c] {
		h.pendingGating = true
	}
	return int(h.comp.Perm[c])
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

// Step implements Engine: it advances fast channels (analytically or by
// leaps) until the next slow/exact firing, which it applies and reports.
// The elapsed time is owed to the active relays; every return other than
// Fired settles it.
//
//stochlint:noalloc
func (h *Hybrid) Step(horizon float64) (int, StepStatus) {
	// Unit-exponential budget for the exact race, spent across leap
	// sub-intervals at the piecewise-frozen exact-set propensity. Drawn
	// lazily: the common all-exact step pays a single Exp draw, like
	// Direct. (Memorylessness makes the fresh draw in the exact branch
	// equivalent to continuing a partially spent budget.)
	budget := -1.0
	spent := 0.0
	const maxIters = 1 << 10
	for iter := 0; ; iter++ {
		aExact, aLeap := h.refresh()
		if aExact <= 0 && aLeap <= 0 {
			// Only relay-internal activity (possibly none) remains; the
			// slow marginal is frozen.
			if math.IsInf(horizon, 1) {
				return h.halt(Quiescent)
			}
			return h.clamp(horizon)
		}

		leaping := aLeap > 0 && aLeap >= leapFactor*aExact && iter < maxIters
		var tauLeap float64
		if leaping {
			tauLeap = h.selectLeapTau(aLeap)
			if tauLeap*aLeap < leapFactor {
				leaping = false // too few batched firings to pay for a leap
			}
		}
		if !leaping {
			// Exact next-event race over every non-relay channel.
			h.leapDemoted = true
			total := aExact + aLeap
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

		// Leap sub-interval: cap τ by the remaining slow budget and the
		// horizon; fire Poisson counts for the leap set; spend the budget
		// at the frozen exact-set propensity.
		if budget < 0 {
			budget = h.gen.Exp(1)
		}
		remaining := math.Inf(1)
		if aExact > 0 {
			remaining = (budget - spent) / aExact
		}
		tau := tauLeap
		slowLimited := false
		if remaining <= tau {
			tau = remaining
			slowLimited = true
		}
		horizonLimited := false
		if h.t+tau >= horizon {
			tau = horizon - h.t
			horizonLimited = true
			slowLimited = false
		}
		if tau > 0 {
			applied, ok := h.fireLeaps(tau)
			if !ok {
				// Negative excursion that halving could not fix: abandon
				// the leap attempt and take one guaranteed exact step.
				return h.exactFallback(horizon)
			}
			if applied < tau {
				// Rejection halved the chunk: neither the slow budget nor
				// the horizon was reached within the applied sub-chunk, so
				// book only what happened and keep going.
				horizonLimited = false
				slowLimited = false
				tau = applied
			}
			h.owed += tau
			h.t += tau
			spent += aExact * tau
		}
		switch {
		case horizonLimited:
			h.t = horizon
			return h.halt(Horizon)
		case slowLimited:
			// The budget ran out inside this chunk: an exact-set channel
			// fires now, selected in proportion to the post-chunk
			// propensities (the chunk's fast updates are already applied).
			aExact = h.refreshExactOnly()
			if aExact <= 0 {
				continue // leaps starved the exact set; race again
			}
			fired := h.pickExact(aExact)
			if fired < 0 {
				continue
			}
			return h.fire(fired), Fired
		}
		// τ was CGP-limited: keep leaping against the remaining budget.
	}
}

// refreshExactOnly brings propensities up to date and returns the race
// total under the current (already derived) classification.
//
//stochlint:noalloc
func (h *Hybrid) refreshExactOnly() (aExact float64) {
	h.applyPending()
	for _, c := range h.raceChans() {
		aExact += h.prop[c]
	}
	return aExact
}

// pickExact selects a race channel (raceChans) in proportion to the
// current propensities, or -1 if none is positive. The result is a
// compiled channel index.
//
//stochlint:noalloc
func (h *Hybrid) pickExact(total float64) int {
	target := h.gen.Float64() * total
	acc := 0.0
	last := -1
	for _, c := range h.raceChans() {
		a := h.prop[c]
		if a <= 0 {
			continue
		}
		acc += a
		last = int(c)
		if target < acc {
			return int(c)
		}
	}
	return last // floating-point slack: last positive channel
}

// selectLeapTau is the Cao–Gillespie–Petzold bound (cgpTau) for a leap
// pool of total propensity aLeap.
func (h *Hybrid) selectLeapTau(aLeap float64) float64 {
	tau := h.cgpTau(aLeap)
	if math.IsInf(tau, 1) {
		// Leap channels whose products nothing consumes: any τ is safe;
		// scale to a healthy batch.
		tau = 4 * leapFactor / aLeap
	}
	return tau
}

// cgpTau is the Cao–Gillespie–Petzold step-size control (Cao, Gillespie &
// Petzold 2006, Eq. 33): τ = min over the reactant species s of every live
// channel of
//
//	max(εx_s, 1) / |Σ_j a_j·d_js|   and   max(εx_s, 1)² / Σ_j a_j·d_js²,
//
// with the drift and variance sums running over the leap pool's channels
// with positive propensity, over the compiled kernel's CSR delta and
// reactant rows. Relay-handled channels' reactants are exempt (the
// propagator owns them). Both lists are ascending, so the per-species sums
// fold in channel order. The second bound matters precisely when the first
// is loose: opposing high-flux channels (a production clock against a
// decay) cancel to |drift| ≈ 0, but their fluctuations still scatter the
// species count by √(σ²τ) per leap, which without the variance bound would
// blow far past the ε target. Returns +Inf when no live channel constrains
// τ.
//
// The caller leaps only if τ·aLeap ≥ leapFactor. The running minimum only
// falls and multiplying by aLeap > 0 is monotone, so cgpTau returns as soon
// as the minimum fails that test, evaluated as the same float expression:
// the decision is unchanged and the partial τ is never used. Whenever the
// pool leaps, τ is the full minimum; aLeap = +Inf never stops early.
func (h *Hybrid) cgpTau(aLeap float64) float64 {
	comp, prop, drift, sigma2 := h.comp, h.prop, h.drift, h.sigma2
	for s := range drift {
		drift[s] = 0
		sigma2[s] = 0
	}
	for _, c := range h.leapChans {
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
	for _, c := range h.liveChans {
		for k := comp.ReactStart[c]; k < comp.ReactStart[c+1]; k++ {
			s := comp.ReactSpecies[k]
			if sigma2[s] == 0 {
				continue // no leap channel changes s
			}
			h.leapBoundEvals++
			bound := math.Max(h.epsilon*float64(h.state[s]), 1)
			if d := math.Abs(drift[s]); d > 0 {
				if cand := bound / d; cand < tau {
					tau = cand
				}
			}
			if cand := bound * bound / sigma2[s]; cand < tau {
				tau = cand
			}
			if tau*aLeap < leapFactor {
				return tau // too short to leap, and it can only shrink
			}
		}
	}
	return tau
}

// fireLeaps draws Poisson counts for the leap set over tau and applies them
// if no species goes negative, halving tau on rejection. It returns the
// chunk length actually applied (possibly smaller than requested; the
// caller books time and slow budget for the applied length and retries the
// remainder at fresh propensities) and whether any application succeeded.
// An applied chunk marks every propensity, and relay activity, stale.
func (h *Hybrid) fireLeaps(tau float64) (applied float64, ok bool) {
	comp := h.comp
	for attempt := 0; attempt < 30; attempt++ {
		var n int64
		for _, c := range h.leapChans {
			var k int64
			if a := h.prop[c]; a > 0 {
				k = h.gen.Poisson(a * tau)
			}
			h.counts[c] = k
			n += k
		}
		copy(h.next, h.state)
		for _, c := range h.leapChans {
			k := h.counts[c]
			if k == 0 {
				continue
			}
			for j := comp.DeltaStart[c]; j < comp.DeltaStart[c+1]; j++ {
				h.next[comp.DeltaSpecies[j]] += comp.DeltaCoeff[j] * k
			}
		}
		if h.next.NonNegative() {
			copy(h.state, h.next)
			h.fastEvents += n
			h.pendingFull, h.pendingGating = true, true
			return tau, true
		}
		tau /= 2
	}
	return 0, false
}

// exactFallback performs one exact step over every non-relay channel —
// guaranteed progress when leaping repeatedly rejects.
func (h *Hybrid) exactFallback(horizon float64) (int, StepStatus) {
	h.leapDemoted = true
	aExact := h.refreshExactOnly()
	if aExact <= 0 {
		return h.halt(Quiescent)
	}
	dt := h.gen.Exp(aExact)
	if h.t+dt > horizon {
		return h.clamp(horizon)
	}
	h.owed += dt
	h.t += dt
	fired := h.pickExact(aExact)
	if fired < 0 {
		return h.halt(Quiescent)
	}
	return h.fire(fired), Fired
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
// held for the whole interval, and the catenary transients compose over
// consecutive intervals (Chapman–Kolmogorov), so one draw has the law of a
// draw per step.
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

// propagate advances every active relay over dt with the exact transient
// law of its linear catenary under frozen externals, and reports whether
// any relay was active. Per molecule of A at time 0, with total A-exit
// hazard μa, conversion fraction q = ConvRate/μa, and B-decay hazard μb:
//
//	P(still A at dt)    = e^{−μa·dt}
//	P(alive as B at dt) = q·μa·(e^{−μb·dt} − e^{−μa·dt})/(μa − μb)
//
// (the μa ≈ μb limit q·μ·dt·e^{−μ·dt} is substituted when the hazards are
// within relative 1e-9, where the difference quotient loses precision).
// Stage A draws Poisson(λa·dt) births, Binomial survivors of the standing
// count, and Binomial survivors of the births at the uniform-arrival
// probability (1 − e^{−μa·dt})/(μa·dt) — the immigration-death transient.
// A two-stage relay then splits each group's exits into conversions that
// are alive as B and molecules that are gone, by the conditional
// probabilities of the closed form (time-averaged over a uniform arrival
// for births), and draws B's own survivors and its direct births the way
// stage A does. Every draw is exact (pinned by the chi-square suites in
// hybrid_test.go and hybrid_chain_test.go).
//
// FastEvents accounting is telemetry: births of A and B, A exits, and
// deaths of molecules that were B at the start or born as B each count one
// firing; a molecule that converts and then dies within dt is tallied once,
// not twice. A two-stage tally therefore depends on how the trajectory is cut
// into settled intervals, unlike a one-stage tally.
//
//stochlint:noalloc
func (h *Hybrid) propagate(dt float64) (advanced bool) {
	for k := range h.part.Relays {
		if !h.relayActive[k] {
			continue
		}
		advanced = true
		r := &h.part.Relays[k]
		xa, lamA := h.state[r.A], h.relayLamA[k]
		var xb int64
		if r.B >= 0 {
			xb = h.state[r.B]
		}
		lamB := h.relayLamB[k]
		if xa == 0 && xb == 0 && lamA <= 0 && lamB <= 0 {
			continue
		}
		adt := r.MuA * dt
		eA := math.Exp(-adt)
		pBarA := -math.Expm1(-adt) / adt
		var nA, sA, sA2 int64
		if lamA > 0 {
			nA = h.gen.Poisson(lamA * dt)
		}
		if xa > 0 {
			sA = h.gen.Binomial(xa, eA)
		}
		if nA > 0 {
			sA2 = h.gen.Binomial(nA, pBarA)
		}
		h.state[r.A] = sA + sA2
		h.fastEvents += nA + (xa - sA) + (nA - sA2)
		h.pendingRelay = true
		if r.B < 0 {
			continue
		}

		muA, muB := r.MuA, r.MuB
		q := r.ConvRate / muA
		bdt := muB * dt
		eB := math.Exp(-bdt)
		var pAB, pBarAB float64 // alive-as-B: age-0 molecule / uniform arrival
		if diff := muA - muB; math.Abs(diff) > 1e-9*math.Max(muA, muB) {
			pAB = q * muA * (eB - eA) / diff
			pBarAB = q * muA / diff * ((1-eB)/muB - (1-eA)/muA) / dt
		} else {
			mdt := 0.5 * (adt + bdt)
			e := math.Exp(-mdt)
			pAB = q * mdt * e
			pBarAB = q * (1 - e*(1+mdt)) / mdt
		}
		pBarB := -math.Expm1(-bdt) / bdt
		var cAB, cAB2, sB, nB, sB2 int64
		if exits := xa - sA; exits > 0 {
			if pd := 1 - eA; pd > 0 {
				cAB = h.gen.Binomial(exits, math.Min(1, pAB/pd)) // conditional on having exited A
			}
		}
		if exits := nA - sA2; exits > 0 {
			if pd := 1 - pBarA; pd > 0 {
				cAB2 = h.gen.Binomial(exits, math.Min(1, pBarAB/pd))
			}
		}
		if xb > 0 {
			sB = h.gen.Binomial(xb, eB)
		}
		if lamB > 0 {
			nB = h.gen.Poisson(lamB * dt)
			if nB > 0 {
				sB2 = h.gen.Binomial(nB, pBarB)
			}
		}
		h.state[r.B] = sB + cAB + cAB2 + sB2
		h.fastEvents += nB + (xb - sB) + (nB - sB2)
	}
	return advanced
}
