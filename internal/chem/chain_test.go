package chem

import "testing"

// TestPartitionConversionChain: the canonical catenary — constant
// production of a, unit conversion a → b (competing with a direct a sink),
// first-order b decay — classifies as one two-stage Relay with the right
// channel roles and hazards, and no one-stage relay on either species (a's
// conversion has products, b's producer is not unit).
func TestPartitionConversionChain(t *testing.T) {
	net := MustParseNetwork(`
a = 3
b = 2
0 -> a @ 4
a -> b @ 1.5
a -> 0 @ 0.5
b -> 0 @ 0.25
0 -> b @ 0.1
`)
	p := NewPartition(net, nil)
	if len(p.Relays) != 1 {
		t.Fatalf("relays = %+v, want exactly one", p.Relays)
	}
	c := p.Relays[0]
	if c.A != net.MustSpecies("a") || c.B != net.MustSpecies("b") {
		t.Fatalf("chain species = (%s, %s), want (a, b)", net.Name(c.A), net.Name(c.B))
	}
	if len(c.Producers) != 1 || c.Producers[0] != 0 {
		t.Errorf("chain producers = %v, want [0]", c.Producers)
	}
	if len(c.Convert) != 1 || c.Convert[0] != 1 || c.ConvRate != 1.5 {
		t.Errorf("chain conversions = %v rate %v, want [1] rate 1.5", c.Convert, c.ConvRate)
	}
	if len(c.ASinks) != 1 || c.ASinks[0] != 2 || c.MuA != 2.0 {
		t.Errorf("chain A sinks = %v muA %v, want [2] muA 2", c.ASinks, c.MuA)
	}
	if len(c.BSinks) != 1 || c.BSinks[0] != 3 || c.MuB != 0.25 {
		t.Errorf("chain B sinks = %v muB %v, want [3] muB 0.25", c.BSinks, c.MuB)
	}
	if len(c.BProducers) != 1 || c.BProducers[0] != 4 {
		t.Errorf("chain B producers = %v, want [4]", c.BProducers)
	}
	if len(c.Dependents) != 0 {
		t.Errorf("chain dependents = %v, want none (whole network is the chain)", c.Dependents)
	}
}

// TestPartitionChainDependentGates: a catalytic reader of b joins
// Dependents (gating analytic use at runtime) without rejecting the
// two-stage relay.
func TestPartitionChainDependentGates(t *testing.T) {
	net := MustParseNetwork(`
g = 0
x = 100
0 -> a @ 4
a -> b @ 2
b -> 0 @ 1
b + g + x -> b + g + p @ 1e-3
`)
	p := NewPartition(net, nil)
	if len(p.Relays) != 1 || p.Relays[0].B != net.MustSpecies("b") {
		t.Fatalf("relays = %+v, want one two-stage relay a → b", p.Relays)
	}
	c := p.Relays[0]
	if len(c.Dependents) != 1 || c.Dependents[0] != 3 {
		t.Fatalf("chain dependents = %v, want [3]", c.Dependents)
	}
	for _, set := range [][]int{c.Producers, c.BProducers, c.Convert, c.ASinks, c.BSinks} {
		for _, i := range set {
			if i == 3 {
				t.Fatal("dependent channel must not be relay-handled")
			}
		}
	}
}

// TestPartitionChainRejections: shapes one step away from a two-stage relay
// must not classify as any relay — a three-stage cascade (middle species
// read by a conversion), a second-order consumer of b, a non-unit
// conversion, and a protected downstream species.
func TestPartitionChainRejections(t *testing.T) {
	cases := []struct {
		name, src string
		protected string
	}{
		{"three-stage cascade", `
0 -> a @ 4
a -> b @ 2
b -> c @ 1
c -> 0 @ 1
`, ""},
		{"second-order consumer of b", `
0 -> a @ 4
a -> b @ 2
2 b -> 0 @ 1
`, ""},
		{"non-unit conversion", `
0 -> a @ 4
a -> 2 b @ 2
b -> 0 @ 1
`, ""},
		{"protected downstream", `
0 -> a @ 4
a -> b @ 2
b -> 0 @ 1
`, "b"},
	}
	for _, tc := range cases {
		net := MustParseNetwork(tc.src)
		var prot []Species
		if tc.protected != "" {
			prot = []Species{net.MustSpecies(tc.protected)}
		}
		p := NewPartition(net, prot)
		if len(p.Relays) != 0 {
			t.Errorf("%s: relays = %+v, want none", tc.name, p.Relays)
		}
	}
}
