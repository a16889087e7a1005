package chem

// This file derives the fast/slow channel partition that sim.Hybrid uses to
// batch relay channels between exact "decision" events.
//
// The partition answers two structural questions about a network, relative
// to a set of *protected* species (the outcome/threshold species whose
// distribution an experiment measures):
//
//  1. Which channels may be batched without touching the protected
//     marginal directly? A channel is *fast-eligible* when it neither
//     produces nor consumes a protected species, and it does not net-change
//     any species that appears as a reactant of a channel that does — so
//     the channels that write the observable, and the channels that feed
//     their propensities, always step exactly. Fast-eligibility is a
//     precondition for relay membership only: a fast-eligible channel that
//     belongs to no relay steps exactly too.
//
//  2. Which species form *relay* subsystems — linear first-order catenaries
//     of one or two stages (constant-rate production, unit conversion,
//     first-order decay) that can be advanced analytically over an
//     arbitrary interval with the exact transient distribution (Poisson
//     births thinned by sequential exponential survival)? The synthesised
//     networks burn almost all of their events in exactly this shape: the
//     logarithm module's b → b + a clock feeding the a → ∅ decay.
type Partition struct {
	// FastEligible[i] reports whether reaction i may be batched by a hybrid
	// simulator, which it is only as part of a relay. Non-eligible channels
	// must always be stepped exactly.
	FastEligible []bool
	// Relays lists the detected analytically-solvable catenaries, in
	// increasing order of the upstream species. No species belongs to two.
	Relays []Relay
}

// Relay describes a linear first-order catenary of one or two stages.
// Molecules of A are born from constant-propensity producers and exit at
// total per-molecule hazard MuA: through unit sinks A → ∅ and, in a
// two-stage relay, through unit conversions A → B (a fraction
// ConvRate/MuA of exits). Molecules of B decay at hazard MuB. With the rest
// of the state frozen, the counts evolve as an immigration-death process
// (one stage) or a two-stage catenary whose joint transient law is closed
// form — sequential exponential survival plus Poisson immigration — so a
// hybrid simulator can advance them over an arbitrary interval exactly.
type Relay struct {
	// A is the upstream species; B the downstream (conversion product), or
	// -1 for a one-stage relay.
	A, B Species
	// Producers are the constant-propensity channels with net stoichiometry
	// exactly {A: +1}; BProducers the analogous direct producers of B. Each
	// is fast-eligible and has no reactant that any fast-eligible channel
	// net-changes (its reactants are only written by non-eligible channels,
	// which end a hybrid interval when they fire).
	Producers  []int
	BProducers []int
	// Convert are the unit conversion channels (reactants exactly {A:1},
	// products exactly {B:1}); ASinks the unit sinks A → ∅; BSinks the unit
	// sinks B → ∅.
	Convert []int
	ASinks  []int
	BSinks  []int
	// ConvRate is the summed rate of Convert; MuA = ConvRate + summed ASink
	// rate (total A-exit hazard); MuB the summed BSink rate.
	ConvRate, MuA, MuB float64
	// Dependents are channels reading A or B catalytically (net change
	// zero). While any dependent has positive propensity the analytic law
	// is invalid — the simulator must fall back to exact stepping for the
	// relay's channels.
	Dependents []int
}

// NewPartition derives the fast/slow partition of net relative to the
// protected species. A nil or empty protected set means no channel is
// pinned slow structurally (relay detection still applies).
func NewPartition(net *Network, protected []Species) *Partition {
	numR := net.NumReactions()
	numS := net.NumSpecies()
	isProtected := make([]bool, numS)
	for _, s := range protected {
		isProtected[s] = true
	}

	// Net stoichiometry per reaction.
	netDelta := make([][]int64, numR)
	for i := 0; i < numR; i++ {
		netDelta[i] = Delta(net.Reaction(i), numS)
	}

	// Pass 1: channels that net-change a protected species are slow.
	touchesProtected := make([]bool, numR)
	for i := 0; i < numR; i++ {
		for s, d := range netDelta[i] {
			if d != 0 && isProtected[s] {
				touchesProtected[i] = true
				break
			}
		}
	}
	// Guarded species: reactants of protected-touching channels. Channels
	// net-changing a guarded species are slow too, so the propensities of
	// the observable-writing channels are never stale.
	guarded := make([]bool, numS)
	for i := 0; i < numR; i++ {
		if !touchesProtected[i] {
			continue
		}
		for _, t := range net.Reaction(i).Reactants {
			guarded[t.Species] = true
		}
	}
	p := &Partition{FastEligible: make([]bool, numR)}
	for i := 0; i < numR; i++ {
		eligible := !touchesProtected[i]
		if eligible {
			for s, d := range netDelta[i] {
				if d != 0 && guarded[s] {
					eligible = false
					break
				}
			}
		}
		p.FastEligible[i] = eligible
	}

	// Relay detection (conditions in classifyRelay), one ascending pass
	// over the upstream species. A species joins at most one relay, as its
	// upstream or its downstream stage.
	fastChanges := make([]bool, numS) // species net-changed by a fast-eligible channel
	for i := 0; i < numR; i++ {
		if !p.FastEligible[i] {
			continue
		}
		for s, d := range netDelta[i] {
			if d != 0 {
				fastChanges[s] = true
			}
		}
	}
	inRelay := make([]bool, numS)
	for s := Species(0); int(s) < numS; s++ {
		if isProtected[s] || inRelay[s] {
			continue
		}
		r, ok := classifyRelay(net, s, isProtected, netDelta, p.FastEligible, fastChanges)
		if !ok || (r.B >= 0 && inRelay[r.B]) {
			continue
		}
		p.Relays = append(p.Relays, r)
		inRelay[r.A] = true
		if r.B >= 0 {
			inRelay[r.B] = true
		}
	}
	return p
}

// classifyRelay checks the relay conditions with upstream species a and, on
// success, returns the assembled Relay. The downstream species is
// discovered from a's conversion channels (all of which must agree on it);
// without any, the relay has one stage. The conditions, stage by stage:
//
//   - every channel reading a is a fast-eligible unit sink a → ∅, a
//     fast-eligible unit conversion a → b, or catalytic in a and b (a
//     dependent) — in particular no slow channel reads a, so slow
//     propensities are independent of the relay's state;
//   - every channel reading b is a fast-eligible unit sink b → ∅ or
//     catalytic in a and b (a dependent);
//   - every other producer of a or b is fast-eligible, nets exactly one
//     unit of that species, and has no reactant any fast-eligible channel
//     net-changes (constant propensity between exact events);
//   - a one-stage relay has at least one sink of a; a two-stage relay has
//     an unprotected b and at least one sink of b.
func classifyRelay(net *Network, a Species, isProtected []bool, netDelta [][]int64,
	fastEligible []bool, fastChanges []bool) (Relay, bool) {
	r := Relay{A: a, B: -1}
	reads := func(i int, s Species) bool {
		for _, t := range net.Reaction(i).Reactants {
			if t.Species == s {
				return true
			}
		}
		return false
	}
	// Pass 1: find the downstream species from a's conversion channels.
	for i := 0; i < net.NumReactions(); i++ {
		rx := net.Reaction(i)
		if rx.Rate == 0 || !reads(i, a) {
			continue
		}
		if b, ok := conversionTarget(rx, netDelta[i], a); ok {
			if r.B >= 0 && r.B != b {
				return Relay{}, false // conversions disagree on the target
			}
			r.B = b
		}
	}
	b := r.B
	if b >= 0 && isProtected[b] {
		return Relay{}, false
	}
	// dB is the net change of the downstream species (zero without one).
	dB := func(i int) int64 {
		if b < 0 {
			return 0
		}
		return netDelta[i][b]
	}
	for i := 0; i < net.NumReactions(); i++ {
		rx := net.Reaction(i)
		if rx.Rate == 0 {
			continue // can never fire; irrelevant to the relay's dynamics
		}
		readsA, readsB := reads(i, a), b >= 0 && reads(i, b)
		switch {
		case readsA:
			if _, ok := conversionTarget(rx, netDelta[i], a); ok {
				if !fastEligible[i] {
					return Relay{}, false
				}
				r.Convert = append(r.Convert, i)
				r.ConvRate += rx.Rate
			} else if isUnitSink(rx, a) {
				if !fastEligible[i] {
					return Relay{}, false
				}
				r.ASinks = append(r.ASinks, i)
			} else if netDelta[i][a] == 0 && dB(i) == 0 {
				r.Dependents = append(r.Dependents, i)
			} else {
				// Reads a in a non-sink, non-catalytic way (e.g. a
				// higher-order consumer, or a producer autocatalytic in a).
				return Relay{}, false
			}
		case readsB:
			if isUnitSink(rx, b) {
				if !fastEligible[i] {
					return Relay{}, false
				}
				r.BSinks = append(r.BSinks, i)
				r.MuB += rx.Rate
			} else if dB(i) == 0 && netDelta[i][a] == 0 {
				r.Dependents = append(r.Dependents, i)
			} else {
				return Relay{}, false
			}
		case netDelta[i][a] > 0:
			if !fastEligible[i] || !isUnitProducer(netDelta[i], a) ||
				producerPerturbed(rx, fastChanges) {
				return Relay{}, false
			}
			r.Producers = append(r.Producers, i)
		case dB(i) > 0:
			if !fastEligible[i] || !isUnitProducer(netDelta[i], b) ||
				producerPerturbed(rx, fastChanges) {
				return Relay{}, false
			}
			r.BProducers = append(r.BProducers, i)
		}
	}
	for _, i := range r.Convert {
		r.MuA += net.Reaction(i).Rate
	}
	for _, i := range r.ASinks {
		r.MuA += net.Reaction(i).Rate
	}
	if b < 0 {
		return r, len(r.ASinks) > 0
	}
	return r, len(r.BSinks) > 0
}

// conversionTarget reports whether rx is a unit conversion a → b for some
// b ≠ a — reactants exactly {a:1} and net stoichiometry exactly
// {a:−1, b:+1} — returning the target species.
func conversionTarget(rx *Reaction, delta []int64, a Species) (Species, bool) {
	if len(rx.Reactants) != 1 || rx.Reactants[0].Species != a || rx.Reactants[0].Coeff != 1 {
		return 0, false
	}
	target := Species(-1)
	for sp, d := range delta {
		switch {
		case Species(sp) == a:
			if d != -1 {
				return 0, false
			}
		case d == 1 && target < 0:
			target = Species(sp)
		case d != 0:
			return 0, false
		}
	}
	if target < 0 {
		return 0, false
	}
	return target, true
}

// isUnitSink reports whether rx is exactly s → ∅: one unit of s as the sole
// reactant and no products.
func isUnitSink(rx *Reaction, s Species) bool {
	return len(rx.Products) == 0 &&
		len(rx.Reactants) == 1 &&
		rx.Reactants[0].Species == s &&
		rx.Reactants[0].Coeff == 1
}

// isUnitProducer reports whether the net stoichiometry is exactly {s: +1}.
func isUnitProducer(delta []int64, s Species) bool {
	for sp, d := range delta {
		if Species(sp) == s {
			if d != 1 {
				return false
			}
		} else if d != 0 {
			return false
		}
	}
	return true
}

// producerPerturbed reports whether any reactant of the producer channel is
// net-changed by a fast-eligible channel (which would make its propensity
// drift inside a hybrid interval).
func producerPerturbed(rx *Reaction, fastChanges []bool) bool {
	for _, t := range rx.Reactants {
		if fastChanges[t.Species] {
			return true
		}
	}
	return false
}
