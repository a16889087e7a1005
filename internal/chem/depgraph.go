package chem

import "sort"

// DependencyGraph computes, for each reaction, the set of reactions whose
// propensity may change when it fires. Reaction j depends on reaction i when
// some species whose count i changes appears among j's reactants. A
// reaction whose firing changes one of its own reactants is thereby in its
// own set; a pure catalyst (every reactant count restored by the products,
// like the paper's working reactions' d species or a b → b + a clock) is
// not — its own propensity provably cannot change, and the synthesised
// networks fire such channels on their hottest paths.
//
// The result is indexed by firing reaction: deps[i] lists the reactions to
// refresh after reaction i fires, in increasing order.
func DependencyGraph(net *Network) [][]int {
	numSpecies := net.NumSpecies()
	// consumers[s] = reactions with s among their reactants.
	consumers := make([][]int, numSpecies)
	for j := range net.Reactions() {
		for _, t := range net.Reaction(j).Reactants {
			consumers[t.Species] = append(consumers[t.Species], j)
		}
	}
	deps := make([][]int, net.NumReactions())
	mark := make([]int, net.NumReactions())
	for i := range mark {
		mark[i] = -1
	}
	for i := range net.Reactions() {
		set := []int{}
		add := func(j int) {
			if mark[j] != i {
				mark[j] = i
				set = append(set, j)
			}
		}
		for _, s := range changedSpecies(net.Reaction(i)) {
			for _, j := range consumers[s] {
				add(j)
			}
		}
		// Keep deterministic increasing order for reproducible simulation.
		insertionSort(set)
		deps[i] = set
	}
	return deps
}

// changedSpecies returns the species whose net count changes when r fires.
func changedSpecies(r *Reaction) []Species {
	delta := map[Species]int64{}
	for _, t := range r.Reactants {
		delta[t.Species] -= t.Coeff
	}
	for _, t := range r.Products {
		delta[t.Species] += t.Coeff
	}
	var out []Species
	for s, d := range delta {
		if d != 0 {
			out = append(out, s)
		}
	}
	// Sorted so the species order (and everything derived from it) is
	// independent of map iteration order.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Delta returns the net stoichiometric change vector of reaction r over
// numSpecies species: delta[s] is the signed change in the count of s per
// firing.
func Delta(r *Reaction, numSpecies int) []int64 {
	d := make([]int64, numSpecies)
	for _, t := range r.Reactants {
		d[t.Species] -= t.Coeff
	}
	for _, t := range r.Products {
		d[t.Species] += t.Coeff
	}
	return d
}
