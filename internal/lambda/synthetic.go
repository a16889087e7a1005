package lambda

import (
	"fmt"

	"stochsynth/internal/chem"
	"stochsynth/internal/synth"
)

// SynthesisParams programs the synthetic model's response
//
//	P(lysogeny)% = A + B·log₂(MOI) + MOI/CInv
//
// with the constraint structure of the paper's construction: A is the
// initial quantity of e₂ (out of 100 total), B is the per-pass output count
// of the logarithm module, and CInv is the α of the 6x₂ → y₁ linear module.
type SynthesisParams struct {
	// A is the constant percentage (0 < A < 100); Figure 4 uses 15.
	A int64
	// B is the log₂ coefficient; Figure 4 uses 6.
	B int64
	// CInv is the inverse linear coefficient (the response gains 1% per
	// CInv units of MOI); Figure 4 uses 6.
	CInv int64
	// Thresholds classify outcomes; zero means DefaultThresholds().
	Thresholds Thresholds
	// FoodHeadroom scales the food supplies above the thresholds (food =
	// threshold·FoodHeadroom rounded up); zero defaults to 1.5, comfortably
	// "sufficiently high to ensure that the appropriate working reactions
	// bring the output molecules above their thresholds" (§3.2).
	FoodHeadroom float64
	// Gamma is the stochastic module's rate separation; zero defaults to
	// the paper's 10⁹.
	Gamma float64
}

// Synthesize compiles the parameters into a lambda model using the synth
// package's generators, reproducing the paper's Figure 4 construction:
//
//	(fan-out)      moi → x₁ + x₂
//	(linear)       CInv·x₂ → y₁
//	(logarithm)    5 reactions computing c ≈ log₂(x₁) passes
//	(linear)       c → B·y₂            (fused into the log module)
//	(assimilation) y₂ + e₁ → e₂,  y₁ + e₁ → e₂
//	(stochastic)   9 reactions over outcomes {cro₂, cI₂}
//
// 19 reactions over 17 species for the Figure 4 parameters.
func Synthesize(p SynthesisParams) (*Model, error) {
	if p.A <= 0 || p.A >= 100 {
		return nil, fmt.Errorf("lambda: A must be in (0,100), got %d", p.A)
	}
	if p.B <= 0 {
		return nil, fmt.Errorf("lambda: B must be positive, got %d", p.B)
	}
	if p.CInv <= 0 {
		return nil, fmt.Errorf("lambda: CInv must be positive, got %d", p.CInv)
	}
	if p.Thresholds == (Thresholds{}) {
		p.Thresholds = DefaultThresholds()
	}
	if p.Thresholds.Cro2 <= 0 || p.Thresholds.CI2 <= 0 {
		return nil, fmt.Errorf("lambda: thresholds must be positive, got %+v", p.Thresholds)
	}
	if p.FoodHeadroom == 0 {
		p.FoodHeadroom = 1.5
	}
	if p.FoodHeadroom < 1 {
		return nil, fmt.Errorf("lambda: FoodHeadroom must be >= 1, got %v", p.FoodHeadroom)
	}
	if p.Gamma == 0 {
		p.Gamma = 1e9
	}
	if p.Gamma <= 1 {
		return nil, fmt.Errorf("lambda: Gamma must be > 1, got %v", p.Gamma)
	}

	glueRate := p.Gamma // the paper's fan-out/linear/assimilation rate (10⁹)
	net := chem.NewNetwork()

	// Fan-out: moi → x1 + x2 (x1 feeds the logarithm, x2 the linear term).
	if err := synth.FanOut(net, "moi", []string{"x1", "x2"}, glueRate); err != nil {
		return nil, err
	}
	// Linear: CInv·x2 → y1 computes Y1 = ⌊MOI/CInv⌋.
	lin, err := synth.LinearSpec{Alpha: p.CInv, Beta: 1, X: "x2", Y: "y1", Rate: glueRate}.Build()
	if err != nil {
		return nil, err
	}
	net.Merge(lin)
	// Logarithm with fused output scaling: Y2 = B per halving pass of x1.
	logm, err := synth.Log2Spec{
		X:      "x1",
		Y:      "y2",
		YCount: p.B,
		Bands:  synth.RateBands{Slowest: 1e-3, Sep: 1e3}, // Figure 4's 1e-3 / 1 / 1e3 / 1e6
	}.Build()
	if err != nil {
		return nil, err
	}
	net.Merge(logm)
	// Assimilation: both carriers convert e1 (lysis weight) into e2
	// (lysogeny weight), adding B·log₂(MOI) + MOI/CInv points of the
	// hundred to the lysogeny probability.
	if err := synth.Assimilation(net, "y2", "e1", "e2", glueRate); err != nil {
		return nil, err
	}
	if err := synth.Assimilation(net, "y1", "e1", "e2", glueRate); err != nil {
		return nil, err
	}
	// Stochastic module over the two outcomes. BaseRate 1/γ makes the
	// concrete rates land on Figure 4's 1e-9 / 1 / 1e9 spread.
	food := func(threshold int64) int64 {
		return int64(float64(threshold)*p.FoodHeadroom + 0.999)
	}
	stoch, err := synth.StochasticSpec{
		Outcomes: []synth.Outcome{
			{Name: "1", Weight: 100 - p.A,
				Outputs: []synth.Output{{Species: "cro2", Food: "f1", FoodQuantity: food(p.Thresholds.Cro2)}}},
			{Name: "2", Weight: p.A,
				Outputs: []synth.Output{{Species: "ci2", Food: "f2", FoodQuantity: food(p.Thresholds.CI2)}}},
		},
		Gamma:    p.Gamma,
		BaseRate: 1 / p.Gamma,
	}.Build()
	if err != nil {
		return nil, err
	}
	net.Merge(stoch.Net)

	if issues := chem.Errors(chem.Validate(net)); len(issues) > 0 {
		return nil, fmt.Errorf("lambda: synthesised network invalid: %v", issues)
	}
	return &Model{
		Name:       "synthetic",
		Net:        net,
		MOI:        net.MustSpecies("moi"),
		Cro2:       net.MustSpecies("cro2"),
		CI2:        net.MustSpecies("ci2"),
		Thresholds: p.Thresholds,
	}, nil
}

// SyntheticModel returns the paper's Figure 4 model: Synthesize with
// A=15, B=6, CInv=6 and the paper's thresholds, reproducing the printed
// 19 reactions in 17 species (initial quantities e₁=85, e₂=15, b=1; see
// the figure4 comment in golden_test.go for the e₁/e₂ reconciliation).
func SyntheticModel() *Model {
	m, err := Synthesize(SynthesisParams{A: 15, B: 6, CInv: 6})
	if err != nil {
		panic("lambda: Figure 4 parameters failed to synthesise: " + err.Error())
	}
	return m
}

// Programmed returns the response the synthesis parameters encode at a
// given MOI, accounting for the integer arithmetic the chemistry actually
// performs: ⌈log₂⌉ from the halving passes and ⌊MOI/CInv⌋ from the linear
// module.
func Programmed(p SynthesisParams, moi int64) float64 {
	if moi <= 0 {
		return float64(p.A)
	}
	ceilLog2 := int64(0)
	for v := moi; v > 1; v = (v + 1) / 2 {
		ceilLog2++
	}
	pct := p.A + p.B*ceilLog2 + moi/p.CInv
	if pct > 100 {
		pct = 100
	}
	return float64(pct)
}
