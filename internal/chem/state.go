package chem

import (
	"fmt"
	"math"
)

// State is a vector of molecule counts indexed by Species.
type State []int64

// Clone returns an independent copy of the state.
func (s State) Clone() State {
	c := make(State, len(s))
	copy(c, s)
	return c
}

// Count returns the count of species sp.
func (s State) Count(sp Species) int64 { return s[sp] }

// Set assigns the count of species sp. It panics on negative counts.
func (s State) Set(sp Species, count int64) {
	if count < 0 {
		panic(fmt.Sprintf("chem: negative count %d", count))
	}
	s[sp] = count
}

// Total returns the total number of molecules across all species.
func (s State) Total() int64 {
	var t int64
	for _, c := range s {
		t += c
	}
	return t
}

// NonNegative reports whether every count is >= 0. Simulators maintain this
// invariant; it is exported so property tests can assert it.
func (s State) NonNegative() bool {
	for _, c := range s {
		if c < 0 {
			return false
		}
	}
	return true
}

// CanFire reports whether the state has enough reactant molecules for one
// firing of r.
func (s State) CanFire(r *Reaction) bool {
	for _, t := range r.Reactants {
		if s[t.Species] < t.Coeff {
			return false
		}
	}
	return true
}

// Apply fires reaction r once, consuming reactants and producing products.
// It panics if the state lacks the required reactants (callers should check
// CanFire or rely on a zero propensity).
func (s State) Apply(r *Reaction) {
	for _, t := range r.Reactants {
		s[t.Species] -= t.Coeff
		if s[t.Species] < 0 {
			panic(fmt.Sprintf("chem: reaction fired without reactants (species %d went to %d)",
				t.Species, s[t.Species]))
		}
	}
	for _, t := range r.Products {
		s[t.Species] += t.Coeff
	}
}

// Propensity returns the stochastic propensity a(x) = k·Π C(x_i, ν_i) of
// reaction r in state s. A zeroth-order reaction has propensity k.
func Propensity(r *Reaction, s State) float64 {
	a := r.Rate
	for _, t := range r.Reactants {
		x := s[t.Species]
		if x < t.Coeff {
			return 0
		}
		switch t.Coeff {
		case 1:
			a *= float64(x)
		case 2:
			a *= float64(x) * float64(x-1) / 2
		case 3:
			a *= float64(x) * float64(x-1) * float64(x-2) / 6
		default:
			a *= binomialFloat(x, t.Coeff)
		}
	}
	return a
}

// binomialFloat computes C(n, k) as a float64 for modest k.
func binomialFloat(n, k int64) float64 {
	v := 1.0
	for i := int64(0); i < k; i++ {
		v *= float64(n-i) / float64(i+1)
	}
	return v
}

// Quiescent reports whether no reaction of net can fire in state s (total
// propensity is zero). A quiescent state is absorbing under exact stochastic
// kinetics.
func Quiescent(net *Network, s State) bool {
	for i := range net.reactions {
		if Propensity(&net.reactions[i], s) > 0 {
			return false
		}
	}
	return true
}

// init-time sanity: binomialFloat must agree with direct computation.
func init() {
	if binomialFloat(5, 2) != 10 || binomialFloat(6, 3) != 20 {
		panic("chem: binomialFloat self-check failed")
	}
	if math.IsNaN(binomialFloat(0, 0)) {
		panic("chem: binomialFloat(0,0) invalid")
	}
}
