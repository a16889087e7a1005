package synth

import (
	"math"
	"strings"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

func example1Spec(gamma float64) StochasticSpec {
	return StochasticSpec{
		Outcomes: []Outcome{
			{Weight: 30},
			{Weight: 40},
			{Weight: 30},
		},
		Gamma: gamma,
	}
}

func TestStochasticBuildStructure(t *testing.T) {
	mod, err := example1Spec(1e3).Build()
	if err != nil {
		t.Fatal(err)
	}
	// m=3: 3 init + 3 reinforce + 6 stabilize + 3 purify + 3 working = 18.
	if got := mod.Net.NumReactions(); got != 18 {
		t.Fatalf("reactions = %d, want 18", got)
	}
	counts := map[string]int{}
	for _, r := range mod.Net.Reactions() {
		counts[r.Label]++
	}
	want := map[string]int{
		LabelInitializing: 3,
		LabelReinforcing:  3,
		LabelStabilizing:  6,
		LabelPurifying:    3,
		LabelWorking:      3,
	}
	for label, n := range want {
		if counts[label] != n {
			t.Errorf("%s reactions = %d, want %d", label, counts[label], n)
		}
	}
	if issues := chem.Errors(chem.Validate(mod.Net)); len(issues) > 0 {
		t.Fatalf("validation errors: %v", issues)
	}
}

func TestStochasticRatesFollowEquation1(t *testing.T) {
	// Equation 1: γ·k = k' = k'' = k'''/γ = γ·k'''' with BaseRate = k.
	const gamma, base = 50.0, 2.0
	spec := example1Spec(gamma)
	spec.BaseRate = base
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range mod.Net.Reactions() {
		r := mod.Net.Reaction(i)
		var want float64
		switch r.Label {
		case LabelInitializing, LabelWorking:
			want = base
		case LabelReinforcing, LabelStabilizing:
			want = gamma * base
		case LabelPurifying:
			want = gamma * gamma * base
		default:
			t.Fatalf("unexpected label %q", r.Label)
		}
		if r.Rate != want {
			t.Errorf("%s rate = %v, want %v", r.Label, r.Rate, want)
		}
	}
}

func TestStochasticReinforcingShape(t *testing.T) {
	// Reinforcing must be dᵢ + eᵢ → 2dᵢ per §2.1.1 (see the figure4
	// comment in internal/lambda/golden_test.go on the Figure 4 misprint).
	mod, err := example1Spec(1e3).Build()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := range mod.Net.Reactions() {
		r := mod.Net.Reaction(i)
		if r.Label != LabelReinforcing {
			continue
		}
		found++
		if len(r.Products) != 1 || r.Products[0].Coeff != 2 {
			t.Fatalf("reinforcing products = %v, want 2d", chem.FormatReaction(mod.Net, r))
		}
	}
	if found != 3 {
		t.Fatalf("found %d reinforcing reactions", found)
	}
}

func TestStochasticProbabilities(t *testing.T) {
	mod, err := example1Spec(1e3).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := mod.Probabilities()
	want := []float64{0.3, 0.4, 0.3}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("Probabilities = %v, want %v", p, want)
		}
	}
}

func TestStochasticProbabilitiesWithRateScale(t *testing.T) {
	// §2.1.2: p_i ∝ E_i·k_i, so doubling one outcome's rate doubles its
	// effective weight.
	spec := StochasticSpec{
		Outcomes: []Outcome{
			{Weight: 10, RateScale: 2},
			{Weight: 20, RateScale: 1},
		},
		Gamma: 100,
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := mod.Probabilities()
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("Probabilities = %v, want [0.5 0.5]", p)
	}
}

func TestStochasticSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec StochasticSpec
		frag string
	}{
		{"one outcome", StochasticSpec{Outcomes: []Outcome{{Weight: 1}}, Gamma: 10}, "at least 2"},
		{"gamma below 1", StochasticSpec{Outcomes: []Outcome{{Weight: 1}, {Weight: 1}}, Gamma: 0.5}, "Gamma"},
		{"gamma NaN", StochasticSpec{Outcomes: []Outcome{{Weight: 1}, {Weight: 1}}, Gamma: math.NaN()}, "Gamma"},
		{"negative weight", StochasticSpec{Outcomes: []Outcome{{Weight: -1}, {Weight: 1}}, Gamma: 10}, "negative weight"},
		{"zero total", StochasticSpec{Outcomes: []Outcome{{Weight: 0}, {Weight: 0}}, Gamma: 10}, "total outcome weight"},
		{"dup names", StochasticSpec{Outcomes: []Outcome{{Weight: 1, Name: "x"}, {Weight: 1, Name: "x"}}, Gamma: 10}, "share name"},
		{"bad ratescale", StochasticSpec{Outcomes: []Outcome{{Weight: 1, RateScale: -2}, {Weight: 1}}, Gamma: 10}, "RateScale"},
	}
	for _, c := range cases {
		_, err := c.spec.Build()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.frag)
		}
	}
}

func TestStochasticPrefixNamespacing(t *testing.T) {
	spec := example1Spec(100)
	spec.Prefix = "m1."
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mod.Net.SpeciesByName("m1.e1"); !ok {
		t.Fatal("prefixed species missing")
	}
	if _, ok := mod.Net.SpeciesByName("e1"); ok {
		t.Fatal("unprefixed species leaked")
	}
}

// runModuleTrial simulates one race to the given output threshold and
// returns the winning outcome (mc.None if the system deadlocked first).
func runModuleTrial(mod *StochasticModule, threshold int64, gen *rng.PCG) int {
	eng := sim.NewDirect(mod.Net, gen)
	res := sim.Run(eng, sim.RunOptions{
		StopWhen: mod.ThresholdPredicate(threshold),
		MaxSteps: 1_000_000,
	})
	if res.Reason != sim.StopPredicate {
		return mc.None
	}
	return mod.Winner(eng.State(), threshold)
}

func TestExample1Distribution(t *testing.T) {
	// The paper's Example 1: E = 30/40/30 must produce outcomes with
	// p = 0.3/0.4/0.3. γ=1000 keeps the error below measurement noise.
	mod, err := example1Spec(1e3).Build()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	res := mc.Run(mc.Config{Trials: trials, Outcomes: 3, Seed: 2007}, func(gen *rng.PCG) int {
		return runModuleTrial(mod, 10, gen)
	})
	if res.None > trials/100 {
		t.Fatalf("too many unresolved trials: %d", res.None)
	}
	want := []float64{0.3, 0.4, 0.3}
	for i, w := range want {
		got := res.Fraction(i)
		sd := math.Sqrt(w * (1 - w) / trials)
		if math.Abs(got-w) > 6*sd+0.01 {
			t.Errorf("p%d = %v, want %v (6σ=%v)", i+1, got, w, 6*sd)
		}
	}
	// Joint goodness-of-fit at 99.9% across all three outcomes. The
	// programmed distribution carries an O(1/γ) bias, so tolerate a small
	// inflation of the statistic beyond the critical value.
	stat, crit, ok, err := mc.GoodnessOfFit(res.Counts, want)
	if err != nil {
		t.Fatal(err)
	}
	if !ok && stat > 2*crit {
		t.Errorf("χ² = %.2f far beyond critical %.2f", stat, crit)
	}
	t.Logf("Example 1 outcome distribution: %v (χ²=%.2f, crit=%.2f)", res, stat, crit)
}

func TestStochasticWinnerLatches(t *testing.T) {
	// Once an outcome wins at high γ, its output keeps growing while the
	// others stay at zero: winner-take-all.
	mod, err := example1Spec(1e4).Build()
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(5)
	eng := sim.NewDirect(mod.Net, gen)
	sim.Run(eng, sim.RunOptions{StopWhen: mod.ThresholdPredicate(50), MaxSteps: 1_000_000})
	st := eng.State()
	winner := mod.Winner(st, 50)
	if winner < 0 {
		t.Fatal("no winner")
	}
	for i := range mod.Outputs {
		if i == winner {
			continue
		}
		if n := mod.OutputTotal(st, i); n > 5 {
			t.Errorf("loser outcome %d produced %d outputs", i, n)
		}
	}
	// And the losing catalysts are extinct.
	for i, d := range mod.Catalysts {
		if i != winner && st[d] > 0 {
			t.Errorf("loser catalyst %d alive: %d", i, st[d])
		}
	}
}

func TestStochasticInitializingOutcome(t *testing.T) {
	mod, err := example1Spec(1e3).Build()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < mod.Net.NumReactions(); r++ {
		out := mod.InitializingOutcome(r)
		if mod.Net.Reaction(r).Label == LabelInitializing {
			if out < 0 || out > 2 || seen[out] {
				t.Fatalf("initializing reaction %d maps to %d", r, out)
			}
			seen[out] = true
		} else if out != -1 {
			t.Fatalf("non-initializing reaction %d maps to %d", r, out)
		}
	}
	if mod.InitializingOutcome(-1) != -1 || mod.InitializingOutcome(9999) != -1 {
		t.Fatal("out-of-range reaction index not -1")
	}
}

func TestStochasticCustomOutputs(t *testing.T) {
	// Lambda-style named outputs with per-outcome food quantities and
	// multi-copy working reactions.
	spec := StochasticSpec{
		Outcomes: []Outcome{
			{Name: "1", Weight: 85, Outputs: []Output{{Species: "cro2", Food: "f1", FoodQuantity: 100}}},
			{Name: "2", Weight: 15, Outputs: []Output{{Species: "ci2", Food: "f2", FoodQuantity: 200, Count: 2}}},
		},
		Gamma: 1e3,
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if mod.Net.Initial(mod.Net.MustSpecies("f2")) != 200 {
		t.Fatal("food quantity not set")
	}
	// Working reaction for outcome 2 must emit 2 ci2 per firing.
	for i := range mod.Net.Reactions() {
		r := mod.Net.Reaction(i)
		if r.Label != LabelWorking {
			continue
		}
		for _, p := range r.Products {
			if mod.Net.Name(p.Species) == "ci2" && p.Coeff != 2 {
				t.Fatalf("ci2 coefficient = %d, want 2", p.Coeff)
			}
		}
	}
}

func TestStochasticTwoOutcomeExactCrossCheck(t *testing.T) {
	// For a miniature module the MC winner distribution must match the
	// programmed p within sampling error even at small γ — the bias from
	// finite γ is symmetric when weights are equal... it is NOT symmetric
	// for unequal weights, so use γ large enough that residual error is
	// below noise.
	spec := StochasticSpec{
		Outcomes: []Outcome{{Weight: 25}, {Weight: 75}},
		Gamma:    1e4,
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	res := mc.Run(mc.Config{Trials: trials, Outcomes: 2, Seed: 41}, func(gen *rng.PCG) int {
		return runModuleTrial(mod, 10, gen)
	})
	sd := math.Sqrt(0.25 * 0.75 / trials)
	if math.Abs(res.Fraction(0)-0.25) > 6*sd+0.005 {
		t.Fatalf("p1 = %v, want 0.25", res.Fraction(0))
	}
}
