package stochsynth_test

import (
	"math"
	"strings"
	"testing"

	"stochsynth"
)

// TestPublicAPIQuickstart runs the README quick-start end to end through
// the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	mod, err := stochsynth.StochasticSpec{
		Outcomes: []stochsynth.Outcome{{Weight: 30}, {Weight: 40}, {Weight: 30}},
		Gamma:    1e3,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := stochsynth.MonteCarlo(
		stochsynth.MCConfig{Trials: 5000, Outcomes: 3, Seed: 1},
		func(gen *stochsynth.RNG) int {
			eng := stochsynth.NewDirect(mod.Net, gen)
			stochsynth.Simulate(eng, stochsynth.RunOptions{
				StopWhen: mod.ThresholdPredicate(10),
				MaxSteps: 1_000_000,
			})
			return mod.Winner(eng.State(), 10)
		})
	want := []float64{0.3, 0.4, 0.3}
	for i, w := range want {
		if math.Abs(res.Fraction(i)-w) > 0.05 {
			t.Errorf("p%d = %v, want ≈%v", i, res.Fraction(i), w)
		}
	}
}

func TestPublicAPINetworkRoundTrip(t *testing.T) {
	net, err := stochsynth.ParseNetworkString(`
e1 = 30
initializing: e1 -> d1 @ 1
`)
	if err != nil {
		t.Fatal(err)
	}
	out := string(stochsynth.MarshalCRN(net))
	net2, err := stochsynth.ParseNetworkString(out)
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, out)
	}
	if net2.NumReactions() != 1 || net2.Initial(net2.MustSpecies("e1")) != 30 {
		t.Fatal("round trip lost data")
	}
	if !strings.Contains(stochsynth.Format(net), "initializing") {
		t.Fatal("Format lost label")
	}
}

func TestPublicAPIEngines(t *testing.T) {
	net := stochsynth.NewBuilder()
	net.Init("a", 10)
	net.Rxn("").In("a", 1).Out("b", 1).Rate(1)
	n := net.Network()
	for _, mk := range []func(*stochsynth.Network, *stochsynth.RNG) stochsynth.Engine{
		stochsynth.NewDirect,
		stochsynth.NewFirstReaction,
		stochsynth.NewOptimizedDirect,
	} {
		eng := mk(n, stochsynth.NewRNG(7))
		res := stochsynth.Simulate(eng, stochsynth.RunOptions{})
		if res.Steps != 10 {
			t.Fatalf("engine ran %d steps, want 10", res.Steps)
		}
	}
}

func TestPublicAPILambdaPipeline(t *testing.T) {
	model := stochsynth.LambdaSynthetic()
	pts := stochsynth.LambdaSweepMOI(model, []int64{1, 4, 10}, 300, 3)
	if len(pts) != 3 {
		t.Fatal("sweep length")
	}
	fit, err := stochsynth.LambdaFitResponse(pts)
	if err != nil {
		t.Fatal(err)
	}
	ref := stochsynth.LambdaReference()
	if math.Abs(fit.Eval(1)-ref.Eval(1)) > 8 {
		t.Errorf("fit at MOI=1: %v vs reference %v", fit.Eval(1), ref.Eval(1))
	}
	nat, err := stochsynth.LambdaNatural(stochsynth.NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	if nat.Net.NumReactions() == 0 {
		t.Fatal("empty natural model")
	}
}

func TestPublicAPIValidateAndPropensity(t *testing.T) {
	net, err := stochsynth.ParseNetworkString(`a + b -> c @ 2`)
	if err != nil {
		t.Fatal(err)
	}
	issues := stochsynth.Validate(net)
	// a and b are starved (consumed, never produced, zero initial): warnings.
	if len(issues) == 0 {
		t.Fatal("expected warnings")
	}
	st := stochsynth.State{3, 4, 0}
	if got := stochsynth.Propensity(net.Reaction(0), st); got != 24 {
		t.Fatalf("propensity = %v, want 24", got)
	}
}

func TestPublicAPIRNGStreams(t *testing.T) {
	a := stochsynth.NewRNGStream(1, 0)
	b := stochsynth.NewRNGStream(1, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams correlated")
	}
}

func TestPublicAPIFitLogLin(t *testing.T) {
	ref := stochsynth.LambdaReference()
	var xs, ys []float64
	for x := 1.0; x <= 10; x++ {
		xs = append(xs, x)
		ys = append(ys, ref.Eval(x))
	}
	m, err := stochsynth.FitLogLin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-15) > 1e-6 || math.Abs(m.B-6) > 1e-6 {
		t.Fatalf("fit = %+v", m)
	}
}

func TestPublicAPIDefaultBands(t *testing.T) {
	b := stochsynth.DefaultBands()
	if b.Rate(0) != 1e-3 || b.Rate(3) != 1e6 {
		t.Fatalf("bands = %v %v", b.Rate(0), b.Rate(3))
	}
}

func TestPublicAPIGlue(t *testing.T) {
	net := stochsynth.NewNetwork()
	if err := stochsynth.FanOut(net, "m", []string{"x", "y"}, 100); err != nil {
		t.Fatal(err)
	}
	if err := stochsynth.Assimilation(net, "y", "e1", "e2", 100); err != nil {
		t.Fatal(err)
	}
	if net.NumReactions() != 2 {
		t.Fatal("glue reactions missing")
	}
}
