package chem

import (
	"reflect"
	"testing"
)

// TestPartitionConversionChain: a relay is an immigration–death process on
// one species, so the canonical catenary — constant production of a, unit
// conversion a → b competing with a direct a sink, first-order b decay and a
// direct b producer — classifies as no relay at all. The conversion a → b
// disqualifies a as a consumer that is not a unit sink, and b as a producer
// that is not a unit producer. The control turns the conversion into a
// second sink a → ∅ at the same rate: the same channels then form two
// immigration–death relays, with a's hazard summed over both sinks.
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
	if p := NewPartition(net, nil); len(p.Relays) != 0 {
		t.Fatalf("catenary relays = %+v, want none", p.Relays)
	}

	ctrl := MustParseNetwork(`
a = 3
b = 2
0 -> a @ 4
a -> 0 @ 1.5
a -> 0 @ 0.5
b -> 0 @ 0.25
0 -> b @ 0.1
`)
	want := []Relay{
		{A: ctrl.MustSpecies("a"), Producers: []int{0}, Sinks: []int{1, 2}, Mu: 2},
		{A: ctrl.MustSpecies("b"), Producers: []int{4}, Sinks: []int{3}, Mu: 0.25},
	}
	if got := NewPartition(ctrl, nil).Relays; !reflect.DeepEqual(got, want) {
		t.Fatalf("control relays = %+v, want %+v", got, want)
	}
}

// TestPartitionChainDependentGates: a catalytic reader of b gates a relay on
// b only when b is one. Fed by the conversion a → b, b is no relay and
// neither is a, so there is nothing for the reader to gate and every
// channel steps exactly. The control feeds b from a constant producer
// instead: b is then a one-stage relay, and the reader joins its Dependents
// without being relay-handled.
func TestPartitionChainDependentGates(t *testing.T) {
	net := MustParseNetwork(`
g = 0
x = 100
0 -> a @ 4
a -> b @ 2
b -> 0 @ 1
b + g + x -> b + g + p @ 1e-3
`)
	if p := NewPartition(net, nil); len(p.Relays) != 0 {
		t.Fatalf("gated chain relays = %+v, want none", p.Relays)
	}

	ctrl := MustParseNetwork(`
g = 0
x = 100
0 -> a @ 4
0 -> b @ 2
b -> 0 @ 1
b + g + x -> b + g + p @ 1e-3
`)
	want := []Relay{
		{A: ctrl.MustSpecies("b"), Producers: []int{1}, Sinks: []int{2}, Mu: 1, Dependents: []int{3}},
	}
	if got := NewPartition(ctrl, nil).Relays; !reflect.DeepEqual(got, want) {
		t.Fatalf("control relays = %+v, want %+v", got, want)
	}
}

// TestPartitionChainRejections: shapes one step away from a conversion
// chain must not classify as any relay either — a three-stage cascade, a
// second-order consumer of b, a non-unit conversion, and a protected
// downstream species.
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
