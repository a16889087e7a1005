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
//  2. Which species are *relays* — immigration–death processes
//     (constant-rate production, first-order decay through unit sinks)
//     that can be advanced analytically over an arbitrary interval with
//     the exact transient distribution (Poisson births thinned by
//     exponential survival)? The synthesised networks burn almost all of
//     their events in exactly this shape: the logarithm module's
//     b → b + a clock feeding the a → ∅ decay.
type Partition struct {
	// FastEligible[i] reports whether reaction i may be batched by a hybrid
	// simulator, which it is only as part of a relay. Non-eligible channels
	// must always be stepped exactly.
	FastEligible []bool
	// Relays lists the detected immigration–death relays in increasing
	// order of their species.
	Relays []Relay
}

// Relay describes an immigration–death process on one species A.
// Molecules of A are born from constant-propensity producers and die
// through unit sinks A → ∅ at total per-molecule hazard Mu. With the rest
// of the state frozen, the count's transient law is closed form — Poisson
// immigration thinned by exponential survival — so a hybrid simulator can
// advance it over an arbitrary interval exactly.
type Relay struct {
	// A is the relay species.
	A Species
	// Producers are the constant-propensity channels with net
	// stoichiometry exactly {A: +1}. Each is fast-eligible and has no
	// reactant that any fast-eligible channel net-changes (its reactants
	// are only written by non-eligible channels, which end a hybrid
	// interval when they fire).
	Producers []int
	// Sinks are the unit sinks A → ∅, and Mu their summed rate.
	Sinks []int
	Mu    float64
	// Dependents are channels reading A catalytically (net change zero).
	// While any dependent has positive propensity the analytic law is
	// invalid — the simulator must fall back to exact stepping for the
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
	// over the species.
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
	for s := Species(0); int(s) < numS; s++ {
		if isProtected[s] {
			continue
		}
		if r, ok := classifyRelay(net, s, netDelta, p.FastEligible, fastChanges); ok {
			p.Relays = append(p.Relays, r)
		}
	}
	return p
}

// classifyRelay checks the relay conditions on species a and, on success,
// returns the assembled Relay:
//
//   - every channel reading a is a fast-eligible unit sink a → ∅ or
//     catalytic in a (a dependent) — in particular no slow channel reads a,
//     so slow propensities are independent of the relay's state, and a
//     conversion a → b disqualifies a like any other consumer;
//   - every other producer of a is fast-eligible, nets exactly one unit of
//     a, and has no reactant any fast-eligible channel net-changes
//     (constant propensity between exact events);
//   - a has at least one sink.
func classifyRelay(net *Network, a Species, netDelta [][]int64, fastEligible, fastChanges []bool) (Relay, bool) {
	r := Relay{A: a}
	readsA := func(rx *Reaction) bool {
		for _, t := range rx.Reactants {
			if t.Species == a {
				return true
			}
		}
		return false
	}
	for i := 0; i < net.NumReactions(); i++ {
		rx := net.Reaction(i)
		if rx.Rate == 0 {
			continue // can never fire; irrelevant to the relay's dynamics
		}
		switch {
		case readsA(rx):
			if isUnitSink(rx, a) {
				if !fastEligible[i] {
					return Relay{}, false
				}
				r.Sinks = append(r.Sinks, i)
				r.Mu += rx.Rate
			} else if netDelta[i][a] == 0 {
				r.Dependents = append(r.Dependents, i)
			} else {
				// Reads a in a non-sink, non-catalytic way (e.g. a
				// conversion a → b, a higher-order consumer, or a producer
				// autocatalytic in a).
				return Relay{}, false
			}
		case netDelta[i][a] > 0:
			if !fastEligible[i] || !isUnitProducer(netDelta[i], a) ||
				producerPerturbed(rx, fastChanges) {
				return Relay{}, false
			}
			r.Producers = append(r.Producers, i)
		}
	}
	return r, len(r.Sinks) > 0
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
