package sim

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// TestRaceRefreshLockstep pins the manually inlined refresh bodies of
// OptimizedDirect.raceThresholds and Hybrid.fire to
// chem.Compiled.FireAndRefresh: after a race, every cached propensity must
// be bit-equal to a fresh evaluation at the final state (refreshed
// dependents were written exactly; untouched channels' propensities
// provably did not change), and OptimizedDirect's running total must agree
// with the fresh sum within accumulation drift. The hybrid is checked after
// applyPending, which brings the readers of relay species current after
// the race's closing settlement. Any divergence between an inlined copy
// and the kernel method (wrong operand, missed delta, dropped tail) shows
// up here deterministically.
func TestRaceRefreshLockstep(t *testing.T) {
	nets := []*chem.Network{
		allocPinNet(),
		chem.MustParseNetwork(`
x = 30
y = 10
-> x @ 2
x -> y @ 0.7
2 y -> x @ 0.3
3 x -> y @ 0.05
4 x ->  @ 0.01
x + y -> 2 y @ 0.2
`),
		// A relay whose dependent blocks mid-race (the relay-gated digest
		// network).
		chem.MustParseNetwork(`
b = 1
x = 40
b -> b + a @ 2
a -> 0 @ 1
2 x + a -> c + a @ 0.5
`),
		relayPinNet(), // a relay settled at gating flips
	}
	checkProps := func(ni int, seed uint64, engine string, comp *chem.Compiled, prop []float64, st chem.State) float64 {
		t.Helper()
		fresh := 0.0
		for c := 0; c < comp.NumChannels(); c++ {
			want := comp.Propensity(c, st)
			if prop[c] != want {
				t.Fatalf("net %d seed %d: %s cached propensity of channel %d = %v, want %v (inlined refresh diverged from FireAndRefresh)",
					ni, seed, engine, c, prop[c], want)
			}
			fresh += want
		}
		return fresh
	}
	for ni, net := range nets {
		ths := []SpeciesThreshold{ // unreachable
			{Species: 0, Count: 1 << 40},
			{Species: chem.Species(net.NumSpecies() - 1), Count: 1 << 40},
		}
		for seed := uint64(1); seed <= 20; seed++ {
			o := NewOptimizedDirect(net, rng.New(seed))
			res := o.raceThresholds(ths, 500)
			if res.Steps == 0 {
				t.Fatalf("net %d seed %d: optimized race fired no events", ni, seed)
			}
			freshTotal := checkProps(ni, seed, "optimized", o.comp, o.prop, o.State())
			tol := 256 * 2.220446049250313e-16 * (1 + math.Abs(freshTotal)) * float64(res.Steps)
			if diff := math.Abs(o.total - freshTotal); diff > tol {
				t.Fatalf("net %d seed %d: cached total %v vs fresh %v (diff %v > tol %v)",
					ni, seed, o.total, freshTotal, diff, tol)
			}

			h := NewHybrid(net, nil, rng.New(seed))
			if res := h.raceThresholds(ths, 500); res.Steps == 0 {
				t.Fatalf("net %d seed %d: hybrid race fired no events", ni, seed)
			}
			h.applyPending()
			checkProps(ni, seed, "hybrid", h.comp, h.prop, h.State())
		}
	}
}
