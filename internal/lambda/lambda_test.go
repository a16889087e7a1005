package lambda

import (
	"math"
	"testing"
)

func TestReferenceMatchesEquation14(t *testing.T) {
	ref := Reference()
	cases := map[float64]float64{
		1:  15 + 0 + 1.0/6,
		2:  15 + 6 + 2.0/6,
		8:  15 + 18 + 8.0/6,
		10: 15 + 6*math.Log2(10) + 10.0/6,
	}
	for moi, want := range cases {
		if got := ref.Eval(moi); math.Abs(got-want) > 1e-12 {
			t.Errorf("Eq14(%v) = %v, want %v", moi, got, want)
		}
	}
}

func TestProgrammedStaircase(t *testing.T) {
	p := SynthesisParams{A: 15, B: 6, CInv: 6}
	cases := map[int64]float64{
		1:  15, // ceil(log2 1)=0, 1/6=0
		2:  21, // 15+6
		3:  27, // ceil(log2 3)=2
		4:  27, // 15+12
		6:  34, // 15+18+1
		8:  34, // 15+18+1
		10: 40, // ceil(log2 10)=4, 10/6=1
		0:  15, // degenerate
	}
	for moi, want := range cases {
		if got := Programmed(p, moi); got != want {
			t.Errorf("Programmed(%d) = %v, want %v", moi, got, want)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := []SynthesisParams{
		{A: 0, B: 6, CInv: 6},
		{A: 100, B: 6, CInv: 6},
		{A: 15, B: 0, CInv: 6},
		{A: 15, B: 6, CInv: 0},
		{A: 15, B: 6, CInv: 6, FoodHeadroom: 0.5},
		{A: 15, B: 6, CInv: 6, Gamma: 0.5},
		{A: 15, B: 6, CInv: 6, Thresholds: Thresholds{Cro2: -1, CI2: 10}},
	}
	for i, p := range bad {
		if _, err := Synthesize(p); err == nil {
			t.Errorf("case %d validated: %+v", i, p)
		}
	}
}

func TestSyntheticModelTracksProgrammedResponse(t *testing.T) {
	// The synthesised network's measured lysogeny probability must match
	// the programmed staircase at every swept MOI (Figure 5's "Synthetic
	// System" series).
	if testing.Short() {
		t.Skip("synthetic-model sweep is seconds of Monte Carlo")
	}
	m := SyntheticModel()
	params := SynthesisParams{A: 15, B: 6, CInv: 6}
	const trials = 1200
	points := SweepMOI(m, []int64{1, 3, 6, 10}, trials, 42)
	for _, pt := range points {
		want := Programmed(params, pt.MOI)
		sd := 100 * math.Sqrt(want/100*(1-want/100)/trials)
		if math.Abs(pt.PctLysogeny-want) > 6*sd+1 {
			t.Errorf("MOI=%d: measured %.1f%%, programmed %.0f%% (6σ=%.1f)",
				pt.MOI, pt.PctLysogeny, want, 6*sd)
		}
		if pt.Unresolved > trials/100 {
			t.Errorf("MOI=%d: %d unresolved trials", pt.MOI, pt.Unresolved)
		}
	}
}

func TestSyntheticModelMonotoneInMOI(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic-model sweep is seconds of Monte Carlo")
	}
	m := SyntheticModel()
	points := SweepMOI(m, []int64{1, 4, 10}, 800, 7)
	if !(points[0].PctLysogeny < points[1].PctLysogeny &&
		points[1].PctLysogeny < points[2].PctLysogeny) {
		t.Fatalf("response not increasing: %+v", points)
	}
}

func TestNaturalModelTracksEquation14(t *testing.T) {
	// The calibrated surrogate must stay within a few points of Eq. 14
	// across the sweep — the property the paper's Figure 5 relies on.
	m, err := NaturalModel(NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	ref := Reference()
	const trials = 1000
	points := SweepMOI(m, []int64{1, 2, 4, 6, 8, 10}, trials, 11)
	for _, pt := range points {
		want := ref.Eval(float64(pt.MOI))
		// Calibration tolerance (5 points) plus sampling noise.
		sd := 100 * math.Sqrt(want/100*(1-want/100)/trials)
		if math.Abs(pt.PctLysogeny-want) > 5+6*sd {
			t.Errorf("MOI=%d: surrogate %.1f%%, Eq14 %.1f%%", pt.MOI, pt.PctLysogeny, want)
		}
	}
}

func TestNaturalModelFitRecoversResponseShape(t *testing.T) {
	// Fitting the surrogate sweep with the paper's model family must give
	// an excellent fit (this is the paper's "curve fit" step) and positive
	// MOI dependence.
	m, err := NaturalModel(NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	// 2000 trials/point keeps the per-point sampling error near 1 point;
	// at 800 the R² estimate straddles the 0.95 bar seed-to-seed.
	points := SweepMOI(m, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2000, 13)
	fitted, err := FitResponse(points)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.R2 < 0.95 {
		t.Errorf("fit R² = %v, want ≥ 0.95 (%s)", fitted.R2, fitted)
	}
	// The response must rise by roughly Eq14's total swing.
	rise := fitted.Eval(10) - fitted.Eval(1)
	if rise < 15 || rise > 35 {
		t.Errorf("fitted rise over MOI 1..10 = %v points, want ≈21", rise)
	}
}

func TestNaturalModelRejectsNegativeRates(t *testing.T) {
	p := DefaultNaturalParams()
	p.KCro = -1
	if _, err := NaturalModel(p); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestFitResponseNeedsThreePoints(t *testing.T) {
	if _, err := FitResponse([]Point{{MOI: 1}, {MOI: 2}}); err == nil {
		t.Fatal("two points accepted")
	}
}

func TestTrialClassifiesBothOutcomes(t *testing.T) {
	// At MOI=1 both outcomes occur with substantial probability.
	m := SyntheticModel()
	res := m.Characterize(1, 400, 3)
	if res.Counts[Lysis] == 0 || res.Counts[Lysogeny] == 0 {
		t.Fatalf("degenerate outcome distribution: %v", res)
	}
}

func TestSynthesizeCustomResponse(t *testing.T) {
	// A different programmed response (A=30, B=3, CInv=2) must also track
	// its staircase — the method is general, not a Figure 4 one-off.
	if testing.Short() {
		t.Skip("synthetic-model sweep is seconds of Monte Carlo")
	}
	params := SynthesisParams{A: 30, B: 3, CInv: 2}
	m, err := Synthesize(params)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 1000
	points := SweepMOI(m, []int64{1, 4, 8}, trials, 17)
	for _, pt := range points {
		want := Programmed(params, pt.MOI)
		sd := 100 * math.Sqrt(want/100*(1-want/100)/trials)
		if math.Abs(pt.PctLysogeny-want) > 6*sd+1 {
			t.Errorf("MOI=%d: measured %.1f%%, programmed %.0f%%", pt.MOI, pt.PctLysogeny, want)
		}
	}
}
