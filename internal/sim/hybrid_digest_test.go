package sim_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/rng"
	"stochsynth/internal/scenario"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// digestCase is one network the hybrid trajectory digest walks: a
// constructor for the engine over its generator, the per-trial reset state,
// an optional stop predicate, a step cap and a horizon.
type digestCase struct {
	name    string
	build   func(gen *rng.PCG) *sim.Hybrid
	st0     chem.State
	stop    func(chem.State) bool
	steps   int
	horizon float64
}

// hybridDigest runs trials trials of c (generator reseeded per trial) and
// folds every step's fired reaction, status, Time() bits, full state and
// FastEvents(), plus one generator draw after each trial, into an FNV-1a
// digest. Any change to a propensity value, a float summation order, a
// class decision or the draw sequence moves it.
func hybridDigest(c digestCase, trials int) uint64 {
	dg := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		dg.Write(buf[:])
	}
	gen := rng.NewStream(0x5eed, 0)
	h := c.build(gen)
	for trial := 0; trial < trials; trial++ {
		gen.Reseed(0x5eed, uint64(trial))
		h.Reset(c.st0, 0)
		for step := 0; step < c.steps; step++ {
			r, status := h.Step(c.horizon)
			word(uint64(int64(r)))
			word(uint64(status))
			word(math.Float64bits(h.Time()))
			for _, x := range h.State() {
				word(uint64(x))
			}
			word(uint64(h.FastEvents()))
			if status != sim.Fired || (c.stop != nil && c.stop(h.State())) {
				break
			}
		}
		word(gen.Uint64())
	}
	return dg.Sum64()
}

// Conversion chains are no relay, so the hybrid races their channels
// exactly. chainRaceCRN burns events in a chain around a slow race;
// chainGatedCRN's chain has a catalytic reader that blocks mid-trial.
const (
	chainRaceCRN = `
src = 1
e1 = 60
e2 = 40
f1 = 10
f2 = 10
src -> src + a @ 0.0001
a -> c @ 8
a -> 0 @ 2
c -> 0 @ 10
e1 -> d1 @ 1e-9
e2 -> d2 @ 1e-9
d1 + f1 -> d1 + o1 @ 1e-9
d2 + f2 -> d2 + o2 @ 1e-9
`
	chainGatedCRN = `
x = 40
0 -> a @ 4
a -> c @ 2
c -> 0 @ 1
2 x + c -> y + c @ 0.5
`
)

// digestCases covers every hybrid code path the paper's workloads reach:
// relay propagation on the synthetic lambda model (MOI 1–10), the
// relay-free Figure 3 module over its γ grid, the five scenario networks,
// two conversion chains that race exactly, relay-free high-copy pools, a
// pool that gates a relay, and horizon clamps.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	var cases []digestCase

	m := lambda.SyntheticModel().WithEngine(sim.EngineHybrid)
	for moi := int64(1); moi <= 10; moi++ {
		factory := m.EngineFactoryAt(moi)
		st0 := m.Net.InitialState()
		st0.Set(m.MOI, moi)
		cro2, ci2, th := m.Cro2, m.CI2, m.Thresholds
		cases = append(cases, digestCase{
			name:  "synthetic",
			build: func(gen *rng.PCG) *sim.Hybrid { return factory(gen).(*sim.Hybrid) },
			st0:   st0,
			stop: func(st chem.State) bool {
				return st[cro2] >= th.Cro2 || st[ci2] >= th.CI2
			},
			steps:   1 << 20,
			horizon: sim.NoHorizon(),
		})
	}

	for _, gamma := range []float64{1, 10, 100, 1e3, 1e4, 1e5} {
		mod, err := synth.Figure3Spec(gamma).Build()
		if err != nil {
			t.Fatal(err)
		}
		comp := chem.Compile(mod.Net)
		protected := mod.ProtectedSpecies()
		stop := mod.ThresholdPredicate(synth.Figure3Threshold)
		cases = append(cases, digestCase{
			name: "figure3",
			build: func(gen *rng.PCG) *sim.Hybrid {
				return sim.NewHybridCompiled(comp, protected, gen)
			},
			st0:     mod.Net.InitialState(),
			stop:    func(st chem.State) bool { return stop(st, 0) },
			steps:   1 << 20,
			horizon: sim.NoHorizon(),
		})
	}

	for _, s := range scenario.All() {
		net, err := chem.ParseNetworkString(s.CRN)
		if err != nil {
			t.Fatal(err)
		}
		var protected []chem.Species
		for _, name := range []string{s.Observable.SpeciesA, s.Observable.SpeciesB} {
			if name != "" {
				protected = append(protected, net.MustSpecies(name))
			}
		}
		st0 := net.InitialState()
		if s.Param != nil && s.Param.Species != "" {
			st0.Set(net.MustSpecies(s.Param.Species), int64(s.Grid[0]))
		}
		comp := chem.Compile(net)
		cases = append(cases, digestCase{
			name: "scenario/" + s.Name,
			build: func(gen *rng.PCG) *sim.Hybrid {
				return sim.NewHybridCompiled(comp, protected, gen)
			},
			st0:     st0,
			steps:   4000,
			horizon: sim.NoHorizon(),
		})
	}

	for _, tc := range []struct {
		name, src string
		protect   []string
		steps     int
		horizon   float64
	}{
		{"chain-race", chainRaceCRN, []string{"o1", "o2"}, 40, sim.NoHorizon()},
		{"chain-gated", chainGatedCRN, nil, 400, 60},
		// Relay with a live catalytic dependent, clamped at a horizon.
		{"relay-gated", `
b = 1
x = 40
b -> b + a @ 2
a -> 0 @ 1
2 x + a -> c + a @ 0.5
`, nil, 400, 80},
		// High-copy conversion: no relay, every event races exactly.
		{"conversion", `
x = 50000
x -> y @ 1
`, nil, 200, 0.5},
		// High-copy isomerisation racing a slow protected channel.
		{"pool-mixed", `
x = 10000
y = 10000
s = 50
x -> y @ 1
y -> x @ 1
s -> t @ 0.05
`, []string{"t"}, 300, 20},
		// A high-copy pool gating a relay: x -> x + g rides the x ⇌ y
		// pool and feeds g, the non-relay reactant of the relay's dependent
		// a + g -> a + h. The relay turns off when the feed makes g
		// positive and back on when the dependent drains it.
		{"pool-gated", `
x = 10000
y = 10000
b = 1
s = 50
x -> y @ 1
y -> x @ 1
x -> x + g @ 0.0001
b -> b + a @ 2
a -> 0 @ 1
a + g -> a + h @ 0.5
s -> t @ 0.05
`, []string{"t"}, 300, 20},
	} {
		net := chem.MustParseNetwork(tc.src)
		var protected []chem.Species
		for _, name := range tc.protect {
			protected = append(protected, net.MustSpecies(name))
		}
		comp := chem.Compile(net)
		cases = append(cases, digestCase{
			name: tc.name,
			build: func(gen *rng.PCG) *sim.Hybrid {
				return sim.NewHybridCompiled(comp, protected, gen)
			},
			st0:     net.InitialState(),
			steps:   tc.steps,
			horizon: tc.horizon,
		})
	}
	return cases
}

// TestHybridTrajectoryDigest pins the hybrid's exact per-step output on
// every digest case: fired reaction, status, Time() bits, state,
// FastEvents() and the generator position after each trial. The digests
// were recorded before the engine's propensities became incremental and
// its channel classes cached; matching them shows that change left every
// stream bit for bit unchanged, as did re-deriving relay activity only
// after an event that can move its inputs. Later changes re-recorded only
// the cases whose streams they moved on purpose:
//
//   - synthetic (0–9), when relay propagation became lazy: an active relay
//     spans many exact steps, so it takes one transient draw per
//     settlement instead of one per step, and State() shows its species as
//     of the last settlement;
//   - synthetic MOI 2–10 (1–9), scenario/repressilator (18) and the three
//     pools (24–26), when the tau-leap path was deleted: the race total is
//     one fold over the live channels instead of the exact-class sum plus
//     the leap-class sum, so Time() moves in its last bits while no sweep
//     output does, and the pools, which leaped, race every event exactly;
//   - chain-race (21) and chain-gated (22), when relays became one-stage
//     immigration–death processes only: the chains are no longer relays,
//     so they race exactly, as Direct does
//     (TestHybridWithoutRelayStepsAsDirect). The other 25 kept their
//     digests, so one-stage propagation, gating and settlement are
//     bitwise untouched.
func TestHybridTrajectoryDigest(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	want := map[int][]uint64{
		2: {
			0xcf0486e02de6e0d2, 0xefc0eb350838c06b, 0xad7fe41b80735808, 0xc9bbeb0329ba2840,
			0xe35285a10b1c08cd, 0xed9b7cc4183e52c8, 0x934b88bd09952cff, 0x60c1d569aa31073f,
			0xe0da2a59fa7af3d0, 0x42a30cec01134e82, 0xc8aea2a7ed442057, 0x020f91563997c840,
			0x206f7e83aa2787e5, 0xc099d8e9fe16ec08, 0x80db50a0b888fa2f, 0x817b581af29309bf,
			0x7ccc38cd6d04d80a, 0xb5437addd6a34f90, 0x6b759149307c5cb1, 0x6cc36ad58ea75073,
			0x591b7b1dbeedf1fe, 0x30b8a8ef29adcd6f, 0xe96a7900d8ab20d6, 0xf3f8cf0fd83d874e,
			0x8930f7c20100df68, 0xc10601b9a3575a29, 0xe6f6d79af3addf8a,
		},
		4: {
			0x4c16b4b8ce056459, 0x14f3d1cce03fdeb2, 0x5af0a1ccea397fb6, 0x97bd06466581a6c0,
			0x30470600ed8a7477, 0xccaef1d4c6c7236b, 0xe43e579c0c561b7c, 0xcd1eb0d208b8de8e,
			0x8482bcc0f650a6f7, 0xff1649c9147ab0e7, 0x12fbf94804b9ba67, 0x00ea1828ba3a96d2,
			0x2151ed947974857a, 0xd7d8865bfad8e947, 0x68ce00615bdd6929, 0x0ef0ef9934db82ef,
			0x5b6c2fb672a70a8e, 0xb02e66efcebdf88e, 0xe9d4fc0e9beb5476, 0xc69a54ec855a5687,
			0x05ded7b9805cd8d8, 0x1e71d1d3eb0ec341, 0x7827e3f87c03b45b, 0x2fc5e5cc528f41f2,
			0xcf353a9c12ddce17, 0xb59e6c39d2bedb2c, 0x11f9e7fce8ba5fcd,
		},
	}[trials]
	cases := digestCases(t)
	var got []uint64
	for _, c := range cases {
		got = append(got, hybridDigest(c, trials))
	}
	if len(want) != len(got) {
		t.Fatalf("recorded %d digests, computed %d: %#x", len(want), len(got), got)
	}
	for i, c := range cases {
		if got[i] != want[i] {
			t.Errorf("case %d (%s): digest %#x, want %#x", i, c.name, got[i], want[i])
		}
	}
}
