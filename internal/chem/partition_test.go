package chem

import (
	"testing"
)

// raceNet builds a miniature of the synthesised lambda hot path: a constant
// clock feeding a first-order decay (the relay pair), a catalytic halving
// channel that depends on the relay species, and a slow race whose working
// channel writes the protected output.
func raceNet(t *testing.T) *Network {
	t.Helper()
	net := MustParseNetwork(`
b = 1
e = 100
f = 50
b -> b + a @ 0.001
a -> 0 @ 1000
2 x + a -> c + a @ 1e6
e -> d @ 1e-9
d + f -> d + out @ 1e-9
`)
	return net
}

func TestPartitionSyntheticShape(t *testing.T) {
	net := raceNet(t)
	p := NewPartition(net, []Species{net.MustSpecies("out")})

	// Reaction order: 0 clock, 1 decay, 2 halving, 3 init, 4 working.
	wantEligible := []bool{true, true, true, false, false}
	for i, want := range wantEligible {
		if p.FastEligible[i] != want {
			t.Errorf("FastEligible[%d] = %v, want %v (%s)",
				i, p.FastEligible[i], want, FormatReaction(net, net.Reaction(i)))
		}
	}

	if len(p.Relays) != 1 {
		t.Fatalf("relays = %+v, want exactly one (species a)", p.Relays)
	}
	r := p.Relays[0]
	if r.A != net.MustSpecies("a") {
		t.Fatalf("relay species = %d, want a", r.A)
	}
	if len(r.Producers) != 1 || r.Producers[0] != 0 {
		t.Errorf("relay producers = %v, want [0] (the clock)", r.Producers)
	}
	if len(r.Sinks) != 1 || r.Sinks[0] != 1 || r.Mu != 1000 {
		t.Errorf("relay sinks = %v rate %v, want [1] rate 1000", r.Sinks, r.Mu)
	}
	if len(r.Dependents) != 1 || r.Dependents[0] != 2 {
		t.Errorf("relay dependents = %v, want [2] (the halving channel)", r.Dependents)
	}
}

func TestPartitionGuardedSpeciesArePinnedSlow(t *testing.T) {
	// The init channel writes d, and d is a reactant of the working channel
	// (which writes the protected species): init must not be fast-eligible
	// even though it never touches the output itself.
	net := raceNet(t)
	p := NewPartition(net, []Species{net.MustSpecies("out")})
	if p.FastEligible[3] {
		t.Error("init channel (writes a working-channel reactant) must be slow")
	}
	if p.FastEligible[4] {
		t.Error("working channel (writes protected species) must be slow")
	}
}

func TestPartitionBirthDeathRelay(t *testing.T) {
	// Zeroth-order immigration plus first-order death: the canonical relay,
	// with no protected species at all.
	net := MustParseNetwork(`
a = 7
0 -> a @ 4
a -> 0 @ 0.5
`)
	p := NewPartition(net, nil)
	if len(p.Relays) != 1 {
		t.Fatalf("relays = %+v, want one", p.Relays)
	}
	r := p.Relays[0]
	if r.Mu != 0.5 || len(r.Dependents) != 0 {
		t.Fatalf("relay = %+v", r)
	}
	if len(r.Producers) != 1 || r.Producers[0] != 0 || len(r.Sinks) != 1 || r.Sinks[0] != 1 {
		t.Fatalf("both channels should be relay-handled: producers %v, sinks %v", r.Producers, r.Sinks)
	}
}

func TestPartitionRejectsPerturbedProducer(t *testing.T) {
	// The producer's reactant (src) is itself consumed by a fast-eligible
	// channel, so its propensity drifts inside an interval: no relay.
	net := MustParseNetwork(`
src = 1000
src -> src + a @ 1
a -> 0 @ 10
src -> 0 @ 0.01
`)
	p := NewPartition(net, nil)
	for _, r := range p.Relays {
		if r.A == net.MustSpecies("a") {
			t.Fatalf("a must not be a relay: its producer's propensity is not interval-constant")
		}
	}
}

func TestPartitionRejectsNonUnitShapes(t *testing.T) {
	cases := []struct {
		name string
		crn  string
	}{
		{"sink with product", "b = 1\nb -> b + a @ 1\na -> z @ 10"},
		{"second-order sink", "b = 1\nb -> b + a @ 1\n2 a -> 0 @ 10"},
		{"producer in pairs", "b = 1\nb -> b + 2 a @ 1\na -> 0 @ 10"},
		{"autocatalytic producer", "a = 5\na -> 2 a @ 1\na -> 0 @ 10"},
		// A zero-rate sink can never fire: without it there is no sink at
		// all, so no relay (and no divide-by-zero death hazard downstream).
		{"zero-rate sink", "b = 1\nb -> b + a @ 1\na -> 0 @ 0"},
	}
	for _, c := range cases {
		net := MustParseNetwork(c.crn)
		p := NewPartition(net, nil)
		for _, r := range p.Relays {
			if r.A == net.MustSpecies("a") {
				t.Errorf("%s: a must not be a relay", c.name)
			}
		}
	}
}

func TestPartitionProtectedSpeciesNeverRelay(t *testing.T) {
	net := MustParseNetwork(`
0 -> a @ 4
a -> 0 @ 0.5
`)
	p := NewPartition(net, []Species{net.MustSpecies("a")})
	if len(p.Relays) != 0 {
		t.Fatalf("protected species classified as relay: %+v", p.Relays)
	}
	if p.FastEligible[0] || p.FastEligible[1] {
		t.Fatalf("channels writing a protected species must be slow: %v", p.FastEligible)
	}
}
