package sim

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// TestRaceRefreshLockstep pins the manually inlined refresh body of
// OptimizedDirect.raceThresholds to chem.Compiled.FireAndRefresh: after a
// race, every cached propensity must be bit-equal to a fresh evaluation at
// the final state (refreshed dependents were written exactly; untouched
// channels' propensities provably did not change), and the running total
// must agree with the fresh sum within accumulation drift. Any divergence
// between the inlined copy and the kernel method — wrong operand, missed
// delta, dropped tail — shows up here deterministically.
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
	}
	for ni, net := range nets {
		for seed := uint64(1); seed <= 20; seed++ {
			o := NewOptimizedDirect(net, rng.New(seed))
			ths := []SpeciesThreshold{ // unreachable
				{Species: 0, Count: 1 << 40},
				{Species: chem.Species(net.NumSpecies() - 1), Count: 1 << 40},
			}
			res := o.raceThresholds(ths, 500)
			if res.Steps == 0 {
				t.Fatalf("net %d seed %d: race fired no events", ni, seed)
			}
			comp := o.comp
			st := o.State()
			freshTotal := 0.0
			for c := 0; c < comp.NumChannels(); c++ {
				want := comp.Propensity(c, st)
				if o.prop[c] != want {
					t.Fatalf("net %d seed %d: cached propensity of channel %d = %v, want %v (inlined race body diverged from FireAndRefresh)",
						ni, seed, c, o.prop[c], want)
				}
				freshTotal += want
			}
			tol := 256 * 2.220446049250313e-16 * (1 + math.Abs(freshTotal)) * float64(res.Steps)
			if diff := math.Abs(o.total - freshTotal); diff > tol {
				t.Fatalf("net %d seed %d: cached total %v vs fresh %v (diff %v > tol %v)",
					ni, seed, o.total, freshTotal, diff, tol)
			}
		}
	}
}
