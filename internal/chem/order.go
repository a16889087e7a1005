package chem

import "stochsynth/internal/rng"

// Characteristic-state channel ordering.
//
// Compile orders channels by their propensity at the network's *default*
// initial state. That is the wrong skew estimate for networks whose inputs
// are installed per trial (the lambda models dose the MOI species inside
// the trial body): at the undosed default the whole infection cascade is
// quiet, so its hot channels rank by the rate-constant tiebreak — often
// exactly backwards. The constructors here order by a caller-supplied
// characteristic state or by a short deterministic pilot run instead.
//
// Any ordering is exact: per-channel propensity values are bit-identical
// under every permutation, and engines map fired channels back through
// Perm. Only the float accumulation order of propensity totals — and hence
// the sampled trajectory stream — depends on the ordering, which is why
// each call site pins ONE deterministic ordering rule and never picks per
// host or per process.

// CompileAt lowers net like Compile but computes the propensity-descending
// channel ordering at the caller-supplied characteristic state st (ties by
// rate constant, then original index, as Compile). Use it when the trial
// body Resets engines to a state materially different from the network
// default — e.g. the MOI-dosed lambda initial condition.
func CompileAt(net *Network, st State) *Compiled {
	if len(st) != net.NumSpecies() {
		panic("chem: CompileAt state length does not match species count")
	}
	a0 := statePropensities(net, st)
	return compileOrdered(net, propensityOrderFrom(net, a0), a0)
}

// pilotSeed seeds CompilePilot's deterministic jump chain, making the pilot
// ordering a pure function of (network, events): identical on every host
// and in every process.
const pilotSeed = 0x70696c6f74 // "pilot"

// CompilePilot lowers net ordered by each channel's *mean* propensity over
// a short deterministic pilot jump chain of at most events events from the
// default initial state (OrderProp records the means). A pilot captures
// mid-trajectory skew that no single state exhibits — transient cascades
// that fire hot early and drain, oscillators away from their unstable
// start — at a one-off compile cost of events × M propensity evaluations.
// The chain is the plain embedded jump chain (no waiting times): it stops
// early on quiescence. No program path calls it any more: wire networks
// compile with Compile, whose order measured at parity with the pilot's.
func CompilePilot(net *Network, events int) *Compiled {
	numR := net.NumReactions()
	sum := make([]float64, numR)
	prop := make([]float64, numR)
	st := net.InitialState()
	gen := rng.New(pilotSeed)
	visited := 0
	for e := 0; e < events; e++ {
		total := 0.0
		for i := 0; i < numR; i++ {
			prop[i] = Propensity(net.Reaction(i), st)
			sum[i] += prop[i]
			total += prop[i]
		}
		visited++
		if total <= 0 {
			break
		}
		target := gen.Float64() * total
		acc := 0.0
		fired := -1
		for i, a := range prop {
			acc += a
			if target < acc {
				fired = i
				break
			}
		}
		if fired < 0 { // float slack at the top of the scan: fire the last live channel
			for i := numR - 1; i >= 0; i-- {
				if prop[i] > 0 {
					fired = i
					break
				}
			}
		}
		if fired < 0 {
			break
		}
		st.Apply(net.Reaction(fired))
	}
	if visited > 0 {
		for i := range sum {
			sum[i] /= float64(visited)
		}
	}
	return compileOrdered(net, propensityOrderFrom(net, sum), sum)
}
