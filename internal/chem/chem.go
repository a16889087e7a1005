// Package chem models chemical reaction networks (CRNs) with integer
// molecule counts and mass-action stochastic kinetics.
//
// A Network is a species table plus a list of reactions. Each reaction has
// integer-stoichiometry reactant and product terms and a rate constant. The
// stochastic propensity of a reaction follows Gillespie's combinatorial
// convention:
//
//	a(x) = k · Π_i C(x_i, ν_i)
//
// where ν_i is the stoichiometric coefficient of reactant species i and
// C(n, k) is the binomial coefficient, so a homodimerisation 2A→… has
// propensity k·X(X−1)/2.
//
// The package provides construction (Builder), a text format (ParseNetwork /
// AppendCRN), paper-style pretty printing, dependency graphs for efficient
// simulation, and structural validation. Simulation itself lives in package
// sim; exact chemical-master-equation analysis in package exact.
package chem

import (
	"fmt"
	"math"
	"sort"
)

// Species identifies a molecular type within one Network. Species values are
// dense indices assigned in registration order, so they can index state
// vectors directly.
type Species int

// Term pairs a species with a positive integer stoichiometric coefficient.
type Term struct {
	Species Species
	Coeff   int64
}

// Reaction is a single chemical reaction channel.
//
// Reactants and Products hold one Term per distinct species, sorted by
// species index, with strictly positive coefficients. An empty Products list
// represents the "no products we care about" sink (∅) used by the paper's
// purifying and decay reactions. An empty Reactants list represents a
// zeroth-order source with constant propensity equal to Rate.
type Reaction struct {
	// Label is an optional free-form category tag, e.g. "initializing" or
	// "purifying". Labels survive parsing and printing and let tests and
	// tools select reaction categories, but have no kinetic meaning.
	Label string

	Reactants []Term
	Products  []Term

	// Rate is the stochastic rate constant (units depend on reaction order).
	Rate float64
}

// Order returns the total molecularity of the reaction (sum of reactant
// coefficients).
func (r *Reaction) Order() int64 {
	var n int64
	for _, t := range r.Reactants {
		n += t.Coeff
	}
	return n
}

// Network is a chemical reaction network: an ordered species table, a list
// of reactions, and a default initial count per species.
//
// The zero value is an empty network ready for use.
type Network struct {
	names     []string
	index     map[string]Species
	reactions []Reaction
	initial   []int64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{index: make(map[string]Species)}
}

// AddSpecies registers name and returns its index. Registering an existing
// name returns the existing index. Names must be non-empty and must not
// contain whitespace, '+', '@', '>', ',', ':' or '#' (they would be
// unparseable in the text format).
func (n *Network) AddSpecies(name string) Species {
	if n.index == nil {
		n.index = make(map[string]Species)
	}
	if s, ok := n.index[name]; ok {
		return s
	}
	if err := checkSpeciesName(name); err != nil {
		panic("chem: " + err.Error())
	}
	s := Species(len(n.names))
	n.names = append(n.names, name)
	n.initial = append(n.initial, 0)
	n.index[name] = s
	return s
}

func checkSpeciesName(name string) error {
	if name == "" {
		return fmt.Errorf("empty species name")
	}
	for _, c := range name {
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return fmt.Errorf("species name %q contains whitespace", name)
		case c == '+' || c == '@' || c == '>' || c == ',' || c == ':' || c == '#' || c == '=':
			return fmt.Errorf("species name %q contains reserved character %q", name, c)
		}
	}
	// A leading digit would be ambiguous with a stoichiometric coefficient.
	if name[0] >= '0' && name[0] <= '9' {
		return fmt.Errorf("species name %q starts with a digit", name)
	}
	return nil
}

// SpeciesByName returns the index for name, and whether it is registered.
func (n *Network) SpeciesByName(name string) (Species, bool) {
	s, ok := n.index[name]
	return s, ok
}

// MustSpecies returns the index for name, panicking if it is unknown. Use it
// in tests and examples where the species is known to exist.
func (n *Network) MustSpecies(name string) Species {
	s, ok := n.index[name]
	if !ok {
		panic(fmt.Sprintf("chem: unknown species %q", name))
	}
	return s
}

// Name returns the name of species s.
func (n *Network) Name(s Species) string { return n.names[s] }

// NumSpecies returns the number of registered species.
func (n *Network) NumSpecies() int { return len(n.names) }

// NumReactions returns the number of reactions.
func (n *Network) NumReactions() int { return len(n.reactions) }

// Reactions exposes the internal reaction slice for read-only iteration by
// simulators and printers. Callers must not mutate the returned slice or the
// reactions within it.
func (n *Network) Reactions() []Reaction { return n.reactions }

// Reaction returns a pointer to reaction i for read-only use.
func (n *Network) Reaction(i int) *Reaction { return &n.reactions[i] }

// SetInitial sets the default initial count of species s.
// It panics if count is negative.
func (n *Network) SetInitial(s Species, count int64) {
	if count < 0 {
		panic(fmt.Sprintf("chem: negative initial count %d for %s", count, n.names[s]))
	}
	n.initial[s] = count
}

// SetInitialByName registers name if needed and sets its initial count.
func (n *Network) SetInitialByName(name string, count int64) {
	n.SetInitial(n.AddSpecies(name), count)
}

// Initial returns the default initial count of species s.
func (n *Network) Initial(s Species) int64 { return n.initial[s] }

// InitialState returns a fresh state vector holding the default initial
// counts.
func (n *Network) InitialState() State {
	st := make(State, len(n.initial))
	copy(st, n.initial)
	return st
}

// AddReaction appends a reaction built from raw (possibly unsorted,
// possibly duplicated) terms. Duplicate species within a side are merged by
// summing coefficients; zero-coefficient terms are dropped. It returns the
// reaction's index.
//
// AddReaction panics if any coefficient is negative, the rate is negative,
// NaN or infinite, or a term references an unregistered species.
func (n *Network) AddReaction(label string, reactants, products []Term, rate float64) int {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("chem: invalid rate %v for reaction %q", rate, label))
	}
	r := Reaction{
		Label:     label,
		Reactants: n.normalizeTerms(reactants),
		Products:  n.normalizeTerms(products),
		Rate:      rate,
	}
	n.reactions = append(n.reactions, r)
	return len(n.reactions) - 1
}

// normalizeTerms merges duplicates, drops zeros, validates and sorts.
func (n *Network) normalizeTerms(terms []Term) []Term {
	out := make([]Term, 0, len(terms))
	for _, t := range terms {
		if t.Coeff < 0 {
			panic(fmt.Sprintf("chem: negative coefficient %d", t.Coeff))
		}
		if int(t.Species) < 0 || int(t.Species) >= len(n.names) {
			panic(fmt.Sprintf("chem: term references unregistered species %d", t.Species))
		}
		if t.Coeff > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Species < out[j].Species })
	w := 0
	for i := 0; i < len(out); {
		s := out[i].Species
		var c int64
		for ; i < len(out) && out[i].Species == s; i++ {
			c += out[i].Coeff
		}
		out[w] = Term{Species: s, Coeff: c}
		w++
	}
	return out[:w]
}

// Clone returns a deep copy of the network. Mutating the clone leaves the
// original untouched, which lets experiment sweeps vary initial conditions
// per trial without re-parsing.
func (n *Network) Clone() *Network {
	c := &Network{
		names:     append([]string(nil), n.names...),
		index:     make(map[string]Species, len(n.index)),
		reactions: make([]Reaction, len(n.reactions)),
		initial:   append([]int64(nil), n.initial...),
	}
	for k, v := range n.index {
		c.index[k] = v
	}
	for i, r := range n.reactions {
		c.reactions[i] = Reaction{
			Label:     r.Label,
			Reactants: append([]Term(nil), r.Reactants...),
			Products:  append([]Term(nil), r.Products...),
			Rate:      r.Rate,
		}
	}
	return c
}

// Merge appends all species, initial counts, and reactions of other into n.
// Species with matching names are unified; initial counts from other
// override counts in n only when non-zero. Merge is how module composition
// (package synth) stitches generated fragments together.
func (n *Network) Merge(other *Network) {
	mapping := make([]Species, other.NumSpecies())
	for i, name := range other.names {
		mapping[i] = n.AddSpecies(name)
		if other.initial[i] != 0 {
			n.initial[mapping[i]] = other.initial[i]
		}
	}
	for _, r := range other.reactions {
		reactants := make([]Term, len(r.Reactants))
		for i, t := range r.Reactants {
			reactants[i] = Term{Species: mapping[t.Species], Coeff: t.Coeff}
		}
		products := make([]Term, len(r.Products))
		for i, t := range r.Products {
			products[i] = Term{Species: mapping[t.Species], Coeff: t.Coeff}
		}
		n.AddReaction(r.Label, reactants, products, r.Rate)
	}
}

// SpeciesNames returns the species names in index order.
func (n *Network) SpeciesNames() []string {
	return append([]string(nil), n.names...)
}
