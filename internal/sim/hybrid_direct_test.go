package sim_test

import (
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
	"stochsynth/internal/scenario"
	"stochsynth/internal/sim"
)

// TestHybridWithoutRelayStepsAsDirect pins the hybrid's exactness contract
// where it has nothing to batch: on a network whose partition finds no
// relay, the hybrid is one exact next-event race over every channel, so on
// a narrow kernel it must step exactly as Direct does, draw for draw. Both
// engines share one compiled kernel and are reseeded onto the same
// per-trial streams; every step must fire the same reaction with the same
// status, Time() bits and state. The networks cover the five scenarios
// (observable protected and nothing protected), a high-copy conversion,
// a fast isomerisation racing a slow protected channel, a consuming
// bimolecular pair, a small isomerisation, and three conversion chains,
// which are no relay: a catenary a → b → ∅ and the two digest chains.
func TestHybridWithoutRelayStepsAsDirect(t *testing.T) {
	type relayFree struct {
		name    string
		net     *chem.Network
		st0     chem.State
		protect []string
	}
	var cases []relayFree
	for _, s := range scenario.All() {
		net, err := chem.ParseNetworkString(s.CRN)
		if err != nil {
			t.Fatal(err)
		}
		st0 := net.InitialState()
		if s.Param != nil && s.Param.Species != "" {
			st0.Set(net.MustSpecies(s.Param.Species), int64(s.Grid[0]))
		}
		var observable []string
		for _, name := range []string{s.Observable.SpeciesA, s.Observable.SpeciesB} {
			if name != "" {
				observable = append(observable, name)
			}
		}
		cases = append(cases,
			relayFree{"scenario/" + s.Name + "/observable", net, st0, observable},
			relayFree{"scenario/" + s.Name + "/none", net, st0, nil})
	}
	for _, tc := range []struct {
		name, src string
		protect   []string
	}{
		{"conversion", `
x = 50000
x -> y @ 1
`, nil},
		{"pool-mixed", `
x = 10000
y = 10000
s = 50
x -> y @ 1
y -> x @ 1
s -> t @ 0.05
`, []string{"t"}},
		{"consumption", `
a = 50
b = 50
a + b -> c @ 10
c -> 0 @ 0.1
`, nil},
		{"isomerisation", `
a = 30
a -> b @ 2
b -> a @ 1
`, nil},
		{"catenary", `
a = 3
b = 2
0 -> a @ 4
a -> b @ 1.5
a -> 0 @ 0.5
b -> 0 @ 0.25
0 -> b @ 0.1
`, nil},
		{"chain-race", chainRaceCRN, []string{"o1", "o2"}},
		{"chain-gated", chainGatedCRN, nil},
	} {
		net := chem.MustParseNetwork(tc.src)
		cases = append(cases, relayFree{tc.name, net, net.InitialState(), tc.protect})
	}

	const (
		trials   = 5
		maxSteps = 3000
		seed     = 0xd1ec7
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var protected []chem.Species
			for _, name := range c.protect {
				protected = append(protected, c.net.MustSpecies(name))
			}
			comp := chem.Compile(c.net)
			if comp.NumSelectBlocks() != 0 {
				t.Fatalf("%d channels: Direct selects by blocks on wide kernels", comp.NumChannels())
			}
			dGen, hGen := rng.NewStream(seed, 0), rng.NewStream(seed, 0)
			d := sim.NewDirectCompiled(comp, dGen)
			h := sim.NewHybridCompiled(comp, protected, hGen)
			if n := len(h.Partition().Relays); n != 0 {
				t.Fatalf("partition finds %d relays, want none: %+v", n, h.Partition().Relays)
			}
			for trial := 0; trial < trials; trial++ {
				dGen.Reseed(seed, uint64(trial))
				hGen.Reseed(seed, uint64(trial))
				d.Reset(c.st0, 0)
				h.Reset(c.st0, 0)
				for step := 0; step < maxSteps; step++ {
					dr, ds := d.Step(sim.NoHorizon())
					hr, hs := h.Step(sim.NoHorizon())
					if dr != hr || ds != hs || math.Float64bits(d.Time()) != math.Float64bits(h.Time()) {
						t.Fatalf("trial %d step %d: direct fired %d (%v) at t=%v, hybrid %d (%v) at t=%v",
							trial, step, dr, ds, d.Time(), hr, hs, h.Time())
					}
					for i, x := range d.State() {
						if h.State()[i] != x {
							t.Fatalf("trial %d step %d: direct state %v, hybrid %v", trial, step, d.State(), h.State())
						}
					}
					if ds != sim.Fired {
						break
					}
				}
				if n := h.FastEvents(); n != 0 {
					t.Fatalf("trial %d: %d fast events without a relay", trial, n)
				}
			}
		})
	}
}
