package sim

import (
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// allocPinNet is a small always-active network (production, conversion,
// dimerisation, decay) whose channels never all drain, so every Step fires.
func allocPinNet() *chem.Network {
	net := chem.NewNetwork()
	b := chem.WrapBuilder(net)
	b.Rxn("").Out("a", 1).Rate(5)
	b.Rxn("").In("a", 1).Out("b", 1).Rate(1)
	b.Rxn("").In("b", 2).Out("c", 1).Rate(0.5)
	b.Rxn("").In("c", 1).Rate(0.1)
	b.Rxn("").In("a", 1).In("b", 1).Out("c", 1).Rate(0.2)
	net.SetInitialByName("a", 20)
	net.SetInitialByName("b", 10)
	return net
}

// TestDirectStepZeroAllocs pins the compiled-kernel Direct hot path: after
// construction, Reset+Step must not allocate (engine-reuse Monte Carlo),
// matching the Hybrid pins.
func TestDirectStepZeroAllocs(t *testing.T) {
	net := allocPinNet()
	d := NewDirect(net, rng.New(7))
	st0 := net.InitialState()
	for i := 0; i < 5; i++ {
		d.Step(NoHorizon())
	}
	allocs := testing.AllocsPerRun(200, func() {
		d.Reset(st0, 0)
		for i := 0; i < 8; i++ {
			d.Step(NoHorizon())
		}
	})
	if allocs != 0 {
		t.Fatalf("Direct Reset+Step allocates %.1f times per trial, want 0", allocs)
	}
}

// TestOptimizedDirectStepZeroAllocs pins the compiled-kernel
// OptimizedDirect hot path (Step with incremental FireAndRefresh).
func TestOptimizedDirectStepZeroAllocs(t *testing.T) {
	net := allocPinNet()
	o := NewOptimizedDirect(net, rng.New(11))
	st0 := net.InitialState()
	for i := 0; i < 5; i++ {
		o.Step(NoHorizon())
	}
	allocs := testing.AllocsPerRun(200, func() {
		o.Reset(st0, 0)
		for i := 0; i < 8; i++ {
			o.Step(NoHorizon())
		}
	})
	if allocs != 0 {
		t.Fatalf("OptimizedDirect Reset+Step allocates %.1f times per trial, want 0", allocs)
	}
}

// relayPinNet feeds a relay's gate from an exact chain: the b → b + a,
// a → ∅ relay is active while g is zero, s → t → g turns it off, and its
// dependent a + g → a + h drains g and turns it back on, so a race settles
// the relay at gating flips and when it returns.
func relayPinNet() *chem.Network {
	return chem.MustParseNetwork(`
b = 1
s = 50
b -> b + a @ 2
a -> 0 @ 1
s -> t @ 0.5
t -> g @ 0.5
a + g -> a + h @ 0.5
`)
}

// TestThresholdRaceZeroAllocs pins the fused race loops of every engine
// that has one: the direct engines' jump-chain races and the hybrid's race,
// on a network without a relay and on one whose relay settles mid-race.
// The per-trial body of the lambda characterisation hot path must be
// allocation-free end to end.
func TestThresholdRaceZeroAllocs(t *testing.T) {
	net := allocPinNet()
	ths := []SpeciesThreshold{
		{Species: net.MustSpecies("c"), Count: 5},
		{Species: net.MustSpecies("b"), Count: 1 << 40}, // unreachable
	}
	relay := relayPinNet()
	relayThs := []SpeciesThreshold{{Species: relay.MustSpecies("h"), Count: 20}}
	for _, tc := range []struct {
		name string
		eng  Engine
		ths  []SpeciesThreshold
	}{
		{"direct", NewDirect(net, rng.New(13)), ths},
		{"optimized", NewOptimizedDirect(net, rng.New(17)), ths},
		{"hybrid", NewHybrid(net, nil, rng.New(19)), ths},
		{"hybrid-relay", NewHybrid(relay, nil, rng.New(23)), relayThs},
	} {
		eng := tc.eng
		st0 := eng.Network().InitialState()
		eng.Reset(st0, 0)
		RunThresholdRace(eng, tc.ths, 1000)
		allocs := testing.AllocsPerRun(100, func() {
			eng.Reset(st0, 0)
			RunThresholdRace(eng, tc.ths, 1000)
		})
		if allocs != 0 {
			t.Fatalf("%s RunThresholdRace allocates %.1f times per trial, want 0", tc.name, allocs)
		}
	}
	h := NewHybrid(relay, nil, rng.New(23))
	if res := RunThresholdRace(h, relayThs, 1000); res.Reason != StopPredicate || h.Propagations() == 0 {
		t.Fatalf("relay pin race: %+v with %d propagations, want a predicate stop after relay settlements",
			res, h.Propagations())
	}
}
