package synth

import (
	"math"
	"slices"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// finalsHist is the histogram of a module's final output counts over its
// trials, built as cmd/experiments' module table builds it: one unit-width
// mc.HistSummary bin per value from the smallest final to the largest,
// plus the finals' exact integer sum for the mean.
type finalsHist struct {
	mc.HistSummary
	sum int64
}

func histOf(finals []int64) finalsHist {
	lo, hi := slices.Min(finals), slices.Max(finals)
	h := finalsHist{HistSummary: mc.NewHistSummary(mc.HistConfig{Lo: lo, Width: 1, Bins: int(hi - lo + 1)})}
	for _, v := range finals {
		h.Add(v)
		h.sum += v
	}
	return h
}

// Mean returns the mean final count.
func (h finalsHist) Mean() float64 { return float64(h.sum) / float64(h.N) }

// FractionAt returns the fraction of trials that ended at v.
func (h finalsHist) FractionAt(v int64) float64 {
	if v < h.Min || v > h.Max {
		return 0
	}
	return h.Fraction(int(v - h.Min))
}

func TestRateBands(t *testing.T) {
	b := RateBands{Slowest: 1e-3, Sep: 1e3}
	want := []float64{1e-3, 1, 1e3, 1e6}
	for level, w := range want {
		if got := b.Rate(level); math.Abs(got-w)/w > 1e-12 {
			t.Errorf("Rate(%d) = %v, want %v", level, got, w)
		}
	}
}

func TestRateBandsValidate(t *testing.T) {
	bad := []RateBands{
		{Slowest: 0, Sep: 10},
		{Slowest: -1, Sep: 10},
		{Slowest: 1, Sep: 1},
		{Slowest: 1, Sep: 0.5},
		{Slowest: math.NaN(), Sep: 10},
		{Slowest: 1, Sep: math.Inf(1)},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bands %+v validated", b)
		}
	}
	if err := DefaultBands().Validate(); err != nil {
		t.Errorf("DefaultBands invalid: %v", err)
	}
}

func TestRateBandsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rate(-1) did not panic")
		}
	}()
	DefaultBands().Rate(-1)
}

func TestLinearModuleExact(t *testing.T) {
	// 2x → 3y from X0=100: stochastically exact Y∞ = 150.
	net, err := LinearSpec{Alpha: 2, Beta: 3, X: "x", Y: "y"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.SetInitialByName("x", 100)
	y := net.MustSpecies("y")
	for seed := uint64(0); seed < 20; seed++ {
		eng := sim.NewDirect(net, rng.New(seed))
		res := sim.Run(eng, sim.RunOptions{})
		if res.Reason != sim.StopQuiescent {
			t.Fatalf("linear module did not quiesce: %v", res.Reason)
		}
		if got := eng.State()[y]; got != 150 {
			t.Fatalf("Y∞ = %d, want 150", got)
		}
	}
}

func TestLinearModuleRemainder(t *testing.T) {
	// X0 = 7 with α = 2: three firings, remainder 1: Y∞ = 3β.
	net, err := LinearSpec{Alpha: 2, Beta: 5, X: "x", Y: "y"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.SetInitialByName("x", 7)
	eng := sim.NewDirect(net, rng.New(1))
	sim.Run(eng, sim.RunOptions{})
	if got := eng.State()[net.MustSpecies("y")]; got != 15 {
		t.Fatalf("Y∞ = %d, want 15", got)
	}
	if got := eng.State()[net.MustSpecies("x")]; got != 1 {
		t.Fatalf("X∞ = %d, want remainder 1", got)
	}
}

func TestLinearSpecValidation(t *testing.T) {
	bad := []LinearSpec{
		{Alpha: 0, Beta: 1, X: "x", Y: "y"},
		{Alpha: 1, Beta: -1, X: "x", Y: "y"},
		{Alpha: 1, Beta: 1, X: "", Y: "y"},
		{Alpha: 1, Beta: 1, X: "x", Y: "x"},
		{Alpha: 1, Beta: 1, X: "x", Y: "y", Rate: -2},
	}
	for i, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestExp2ModuleComputesPowersOfTwo(t *testing.T) {
	// Y∞ = 2^X0 for X0 in 0..5; the module is approximate, so check the
	// Monte Carlo mode and a mean tolerance.
	for _, x0 := range []int64{0, 1, 2, 3, 4, 5} {
		net, err := Exp2Spec{X: "x", Y: "y"}.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.SetInitialByName("x", x0)
		y := net.MustSpecies("y")
		want := int64(1) << uint(x0)
		var finals []int64
		const trials = 200
		for seed := uint64(0); seed < trials; seed++ {
			eng := sim.NewDirect(net, rng.New(seed))
			res := sim.Run(eng, sim.RunOptions{MaxSteps: 200000})
			if res.Reason != sim.StopQuiescent {
				t.Fatalf("X0=%d: exp2 did not quiesce (%v)", x0, res.Reason)
			}
			finals = append(finals, eng.State()[y])
		}
		hist := histOf(finals)
		if mode := hist.Mode(); mode != want {
			t.Errorf("X0=%d: mode Y∞ = %d, want %d (mean %.2f)", x0, mode, want, hist.Mean())
		}
		if frac := hist.FractionAt(want); frac < 0.5 {
			t.Errorf("X0=%d: P(Y∞=%d) = %v, want ≥ 0.5", x0, want, frac)
		}
		if mean := hist.Mean(); math.Abs(mean-float64(want)) > 0.25*float64(want)+0.5 {
			t.Errorf("X0=%d: mean Y∞ = %v, want ≈%d", x0, mean, want)
		}
	}
}

func TestExp2TighterBandsReduceError(t *testing.T) {
	// Ablation: wider band separation must not increase the error rate.
	errorRate := func(sep float64) float64 {
		net, err := Exp2Spec{X: "x", Y: "y", Bands: RateBands{Slowest: 1e-3, Sep: sep}}.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.SetInitialByName("x", 4)
		y := net.MustSpecies("y")
		miss := 0
		const trials = 300
		for seed := uint64(0); seed < trials; seed++ {
			eng := sim.NewDirect(net, rng.New(seed))
			sim.Run(eng, sim.RunOptions{MaxSteps: 200000})
			if eng.State()[y] != 16 {
				miss++
			}
		}
		return float64(miss) / trials
	}
	loose := errorRate(10)
	tight := errorRate(1e4)
	if tight > loose+0.05 {
		t.Fatalf("error at sep=1e4 (%v) worse than sep=10 (%v)", tight, loose)
	}
	if tight > 0.2 {
		t.Fatalf("error at sep=1e4 = %v, want small", tight)
	}
}

func TestLog2ModuleComputesFloorLog(t *testing.T) {
	// Non-powers of two give ⌈log₂X₀⌉: the odd leftover rejoins each pass
	// (100→50→25→13→7→4→2→1 is 7 passes).
	for _, c := range []struct{ x0, want int64 }{
		{2, 1}, {4, 2}, {8, 3}, {16, 4}, {32, 5}, {100, 7}, {5, 3},
	} {
		spec := Log2Spec{X: "x", Y: "y"}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.SetInitialByName("x", c.x0)
		y := net.MustSpecies("y")
		done := spec.DonePredicate(net)
		var finals []int64
		const trials = 150
		for seed := uint64(0); seed < trials; seed++ {
			eng := sim.NewDirect(net, rng.New(seed))
			res := sim.Run(eng, sim.RunOptions{StopWhen: done, MaxSteps: 500000})
			if res.Reason != sim.StopPredicate {
				t.Fatalf("X0=%d: log2 did not converge (%v)", c.x0, res.Reason)
			}
			finals = append(finals, eng.State()[y])
		}
		hist := histOf(finals)
		if mode := hist.Mode(); mode != c.want {
			t.Errorf("X0=%d: mode Y∞ = %d, want %d (mean %.2f)", c.x0, mode, c.want, hist.Mean())
		}
		if frac := hist.FractionAt(c.want); frac < 0.5 {
			t.Errorf("X0=%d: P(Y∞=%d) = %v, want ≥ 0.5", c.x0, c.want, frac)
		}
	}
}

func TestLog2OfOneIsZero(t *testing.T) {
	spec := Log2Spec{X: "x", Y: "y"}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.SetInitialByName("x", 1)
	eng := sim.NewDirect(net, rng.New(3))
	res := sim.Run(eng, sim.RunOptions{StopWhen: spec.DonePredicate(net), MaxSteps: 100000})
	if res.Reason != sim.StopPredicate {
		t.Fatalf("log2(1) did not converge: %v", res.Reason)
	}
	if got := eng.State()[net.MustSpecies("y")]; got != 0 {
		t.Fatalf("log2(1) = %d, want 0", got)
	}
}

func TestPowerModuleComputesPowers(t *testing.T) {
	for _, c := range []struct{ x0, p0, want int64 }{
		{2, 1, 2}, {3, 1, 3}, {2, 2, 4}, {3, 2, 9}, {2, 3, 8},
	} {
		net, err := PowerSpec{X: "x", P: "p", Y: "y"}.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.SetInitialByName("x", c.x0)
		net.SetInitialByName("p", c.p0)
		y := net.MustSpecies("y")
		var finals []int64
		const trials = 60
		for seed := uint64(0); seed < trials; seed++ {
			eng := sim.NewDirect(net, rng.New(seed))
			res := sim.Run(eng, sim.RunOptions{MaxSteps: 2_000_000})
			if res.Reason != sim.StopQuiescent {
				t.Fatalf("X=%d P=%d: power did not quiesce (%v)", c.x0, c.p0, res.Reason)
			}
			finals = append(finals, eng.State()[y])
		}
		hist := histOf(finals)
		if mode := hist.Mode(); mode != c.want {
			t.Errorf("X=%d P=%d: mode Y∞ = %d, want %d (mean %.2f)",
				c.x0, c.p0, mode, c.want, hist.Mean())
		}
	}
}

func TestIsolationModuleLeavesExactlyOne(t *testing.T) {
	for _, y0 := range []int64{1, 2, 5, 20, 100} {
		net, err := IsolationSpec{Y: "y", C: "c"}.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.SetInitialByName("y", y0)
		net.SetInitialByName("c", 3)
		y := net.MustSpecies("y")
		c := net.MustSpecies("c")
		ok := 0
		const trials = 100
		for seed := uint64(0); seed < trials; seed++ {
			eng := sim.NewDirect(net, rng.New(seed))
			res := sim.Run(eng, sim.RunOptions{MaxSteps: 100000})
			if res.Reason != sim.StopQuiescent {
				t.Fatalf("isolation did not quiesce: %v", res.Reason)
			}
			st := eng.State()
			if st[c] != 0 {
				t.Fatalf("C∞ = %d, want 0", st[c])
			}
			if st[y] == 1 {
				ok++
			}
		}
		// The only failure mode is c dying before the cull finishes (slow
		// vs fast band): rare. Y0=1 is trivially always correct.
		if float64(ok)/trials < 0.9 {
			t.Errorf("Y0=%d: P(Y∞=1) = %v, want ≥ 0.9", y0, float64(ok)/trials)
		}
	}
}

func TestIsolationThenExp2Pipeline(t *testing.T) {
	// Composition (§2.2.2): isolation establishes Y=1 for exp2 computing
	// 2^3 = 8 from a noisy initial Y. Species "y" is shared by name; the
	// exp2 bands sit above the isolation bands so the cull completes first.
	iso, err := IsolationSpec{Y: "y", C: "c", Bands: RateBands{Slowest: 10, Sep: 1e3}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := Exp2Spec{X: "x", Y: "y", Prefix: "exp.", Bands: RateBands{Slowest: 1e-3, Sep: 1e3}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := chem.NewNetwork()
	net.Merge(iso)
	net.Merge(exp2)
	net.SetInitialByName("y", 7) // noisy: isolation must cut it to 1
	net.SetInitialByName("c", 3)
	net.SetInitialByName("x", 3)
	y := net.MustSpecies("y")
	var finals []int64
	const trials = 150
	for seed := uint64(0); seed < trials; seed++ {
		eng := sim.NewDirect(net, rng.New(seed))
		res := sim.Run(eng, sim.RunOptions{MaxSteps: 500000})
		if res.Reason != sim.StopQuiescent {
			t.Fatalf("pipeline did not quiesce: %v", res.Reason)
		}
		finals = append(finals, eng.State()[y])
	}
	hist := histOf(finals)
	if mode := hist.Mode(); mode != 8 {
		t.Fatalf("pipeline mode Y∞ = %d, want 8 (mean %.2f)", mode, hist.Mean())
	}
}

func TestModuleSpecValidation(t *testing.T) {
	if _, err := (Exp2Spec{X: "x", Y: "x"}).Build(); err == nil {
		t.Error("exp2 X==Y validated")
	}
	if _, err := (Exp2Spec{X: "", Y: "y"}).Build(); err == nil {
		t.Error("exp2 empty X validated")
	}
	if _, err := (Log2Spec{X: "x", Y: "x"}).Build(); err == nil {
		t.Error("log2 X==Y validated")
	}
	if _, err := (PowerSpec{X: "x", P: "x", Y: "y"}).Build(); err == nil {
		t.Error("power X==P validated")
	}
	if _, err := (IsolationSpec{Y: "y", C: "y"}).Build(); err == nil {
		t.Error("isolation Y==C validated")
	}
	if _, err := (Exp2Spec{X: "x", Y: "y", Bands: RateBands{Slowest: -1, Sep: 2}}).Build(); err == nil {
		t.Error("bad bands validated")
	}
}

func TestFanOutAndAssimilation(t *testing.T) {
	net := chem.NewNetwork()
	if err := FanOut(net, "moi", []string{"x1", "x2"}, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := Assimilation(net, "y1", "e2", "e1", 1e9); err != nil {
		t.Fatal(err)
	}
	net.SetInitialByName("moi", 4)
	net.SetInitialByName("y1", 3)
	net.SetInitialByName("e2", 10)
	eng := sim.NewDirect(net, rng.New(9))
	res := sim.Run(eng, sim.RunOptions{})
	if res.Reason != sim.StopQuiescent {
		t.Fatalf("glue did not quiesce: %v", res.Reason)
	}
	st := eng.State()
	if st[net.MustSpecies("x1")] != 4 || st[net.MustSpecies("x2")] != 4 {
		t.Fatalf("fan-out counts wrong: %v", st)
	}
	if st[net.MustSpecies("e1")] != 3 || st[net.MustSpecies("e2")] != 7 {
		t.Fatalf("assimilation moved wrong amounts: e1=%d e2=%d",
			st[net.MustSpecies("e1")], st[net.MustSpecies("e2")])
	}
}

func TestGlueValidation(t *testing.T) {
	net := chem.NewNetwork()
	if err := FanOut(net, "", []string{"a", "b"}, 1); err == nil {
		t.Error("empty fan-out input validated")
	}
	if err := FanOut(net, "m", []string{"a"}, 1); err == nil {
		t.Error("single-output fan-out validated")
	}
	if err := FanOut(net, "m", []string{"a", "m"}, 1); err == nil {
		t.Error("self fan-out validated")
	}
	if err := FanOut(net, "m", []string{"a", "b"}, 0); err == nil {
		t.Error("zero-rate fan-out validated")
	}
	if err := Assimilation(net, "y", "e", "e", 1); err == nil {
		t.Error("self assimilation validated")
	}
	if err := Assimilation(net, "y", "a", "b", -1); err == nil {
		t.Error("negative-rate assimilation validated")
	}
}
