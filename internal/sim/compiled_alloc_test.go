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

// TestThresholdRaceZeroAllocs pins the fused jump-chain race loops of both
// direct engines — the per-trial body of the lambda characterisation hot
// path must be allocation-free end to end.
func TestThresholdRaceZeroAllocs(t *testing.T) {
	net := allocPinNet()
	ths := []SpeciesThreshold{
		{Species: net.MustSpecies("c"), Count: 5},
		{Species: net.MustSpecies("b"), Count: 1 << 40}, // unreachable
	}
	st0 := net.InitialState()
	for name, eng := range map[string]Engine{
		"direct":    NewDirect(net, rng.New(13)),
		"optimized": NewOptimizedDirect(net, rng.New(17)),
	} {
		eng.Reset(st0, 0)
		RunThresholdRace(eng, ths, 1000)
		allocs := testing.AllocsPerRun(100, func() {
			eng.Reset(st0, 0)
			RunThresholdRace(eng, ths, 1000)
		})
		if allocs != 0 {
			t.Fatalf("%s RunThresholdRace allocates %.1f times per trial, want 0", name, allocs)
		}
	}
}
