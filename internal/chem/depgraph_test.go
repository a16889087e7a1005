package chem

import (
	"testing"
)

func TestDependencyGraphBasic(t *testing.T) {
	// r0: a -> b   changes a, b
	// r1: b -> c   changes b, c
	// r2: c -> a   changes c, a
	net := MustParseNetwork(`
a -> b @ 1
b -> c @ 1
c -> a @ 1
`)
	deps := DependencyGraph(net)
	want := [][]int{
		{0, 1}, // firing r0 changes a (r0's reactant) and b (r1's reactant)
		{1, 2},
		{0, 2},
	}
	for i := range want {
		if !equalInts(deps[i], want[i]) {
			t.Errorf("deps[%d] = %v, want %v", i, deps[i], want[i])
		}
	}
}

func TestDependencyGraphCatalyst(t *testing.T) {
	// Reaction 0 catalyses via d1 but consumes f1, so its own propensity
	// changes when it fires: it must appear in its own set.
	net := MustParseNetwork(`
d1 + f1 -> d1 + cro2 @ 1
cro2 -> 0 @ 1
`)
	deps := DependencyGraph(net)
	if !containsInt(deps[0], 0) {
		t.Errorf("deps[0] = %v should contain itself (consumes f1)", deps[0])
	}
	if !containsInt(deps[0], 1) {
		t.Errorf("deps[0] = %v should contain consumer of cro2", deps[0])
	}
	// Firing cro2 decay changes only cro2, which reaction 0 does not consume.
	if containsInt(deps[1], 0) {
		t.Errorf("deps[1] = %v should not contain reaction 0", deps[1])
	}
}

func TestDependencyGraphPureCatalyst(t *testing.T) {
	// A pure catalyst (the logarithm module's b → b + a clock) restores
	// every reactant it consumes: its own propensity cannot change, so it
	// is excluded from its own dependency set — this keeps the hottest
	// synthesised channels at their minimal refresh cost.
	net := MustParseNetwork(`
b -> b + a @ 1
a -> 0 @ 1
`)
	deps := DependencyGraph(net)
	if containsInt(deps[0], 0) {
		t.Errorf("deps[0] = %v should not contain the pure catalyst itself", deps[0])
	}
	if !containsInt(deps[0], 1) {
		t.Errorf("deps[0] = %v should contain the consumer of a", deps[0])
	}
	// The decay consumes a, so it depends on itself.
	if !containsInt(deps[1], 1) {
		t.Errorf("deps[1] = %v should contain itself", deps[1])
	}
}

func TestDeltaVector(t *testing.T) {
	net := MustParseNetwork(`a + b -> 2 c + b @ 1`)
	d := Delta(net.Reaction(0), net.NumSpecies())
	a, b, c := net.MustSpecies("a"), net.MustSpecies("b"), net.MustSpecies("c")
	if d[a] != -1 || d[b] != 0 || d[c] != 2 {
		t.Fatalf("delta = %v", d)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(a []int, v int) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}
