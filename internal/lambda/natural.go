package lambda

import (
	"fmt"

	"stochsynth/internal/chem"
)

// NaturalParams are the rate constants of the mechanistic surrogate for the
// Arkin et al. natural lambda model. The defaults were calibrated so that
// the surrogate's lysogenisation response over MOI 1..10 tracks the
// paper's Equation 14 (TestNaturalModelTracksEquation14 holds them to it);
// they are not biological measurements.
type NaturalParams struct {
	// KCro is the lysis-pathway expression rate. It is machinery-limited
	// (independent of MOI): the lytic promoter saturates host RNA
	// polymerase, so extra genome copies do not accelerate it.
	KCro float64
	// KCII is the per-genome CII expression rate — the MOI sensor.
	KCII float64
	// KSat is the quadratic CII self-limitation rate (2cii → cii),
	// modelling the capacity-limited turnover that makes the steady CII
	// level grow sub-linearly (≈ √MOI) — the source of the response's
	// concavity in MOI.
	KSat float64
	// KCI is the CII-activated cI expression rate (the PRE promoter).
	KCI float64
	// KLeak is the basal machinery-limited cI expression rate; it sets the
	// lysogeny floor at low MOI.
	KLeak float64
	// KDim is the dimerisation rate (both Cro₂ and CI₂).
	KDim float64
	// KRep is the mutual-repression rate (each dimer destroys opposing
	// monomers). Kept mild: strong repression stalls the race into a
	// noise-dominated war of attrition.
	KRep float64
	// KDecay is the monomer decay rate (Cro, CI).
	KDecay float64
	// KDecayCII is the background CII decay rate.
	KDecayCII float64
}

// DefaultNaturalParams returns the calibrated surrogate constants.
func DefaultNaturalParams() NaturalParams {
	return NaturalParams{
		KCro:      2.0,
		KCII:      1.0,
		KSat:      0.1,
		KCI:       0.038,
		KLeak:     3.62,
		KDim:      5.0,
		KRep:      0.01,
		KDecay:    0.02,
		KDecayCII: 0.02,
	}
}

// NaturalModel builds the mechanistic surrogate with the given parameters
// (zero value means DefaultNaturalParams). The network is an MOI-dosed race
// between Cro dimerisation (lysis) and CII-gated CI dimerisation
// (lysogeny): more genome copies mean more CII, more CII means more cI, and
// the CII pool self-limits so the advantage grows sub-linearly — the
// qualitative mechanism behind the natural switch's MOI dependence. It
// stands in for the Arkin et al. model the paper characterises but does
// not reprint; Figure 5 reads only that model's MOI response, which the
// NaturalParams defaults are calibrated to track.
func NaturalModel(p NaturalParams) (*Model, error) {
	if p == (NaturalParams{}) {
		p = DefaultNaturalParams()
	}
	for name, v := range map[string]float64{
		"KCro": p.KCro, "KCII": p.KCII, "KSat": p.KSat, "KCI": p.KCI,
		"KLeak": p.KLeak, "KDim": p.KDim, "KRep": p.KRep,
		"KDecay": p.KDecay, "KDecayCII": p.KDecayCII,
	} {
		if v < 0 {
			return nil, fmt.Errorf("lambda: negative rate %s", name)
		}
	}
	b := chem.NewBuilder()
	b.Rxn("transcribe-cro").Out("cro", 1).Rate(p.KCro)
	b.Rxn("transcribe-cii").In("g", 1).Out("g", 1).Out("cii", 1).Rate(p.KCII)
	b.Rxn("saturate-cii").In("cii", 2).Out("cii", 1).Rate(p.KSat)
	b.Rxn("decay-cii").In("cii", 1).Rate(p.KDecayCII)
	b.Rxn("activate-ci").In("cii", 1).Out("cii", 1).Out("ci", 1).Rate(p.KCI)
	b.Rxn("leak-ci").Out("ci", 1).Rate(p.KLeak)
	b.Rxn("dimerize-cro").In("cro", 2).Out("cro2", 1).Rate(p.KDim)
	b.Rxn("dimerize-ci").In("ci", 2).Out("ci2", 1).Rate(p.KDim)
	b.Rxn("repress-ci").In("cro2", 1).In("ci", 1).Out("cro2", 1).Rate(p.KRep)
	b.Rxn("repress-cro").In("ci2", 1).In("cro", 1).Out("ci2", 1).Rate(p.KRep)
	b.Rxn("decay-cro").In("cro", 1).Rate(p.KDecay)
	b.Rxn("decay-ci").In("ci", 1).Rate(p.KDecay)
	b.Species("g")

	net := b.Network()
	return &Model{
		Name:       "natural",
		Net:        net,
		MOI:        net.MustSpecies("g"),
		Cro2:       net.MustSpecies("cro2"),
		CI2:        net.MustSpecies("ci2"),
		Thresholds: DefaultThresholds(),
	}, nil
}
