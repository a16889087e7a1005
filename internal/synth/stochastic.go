package synth

import (
	"fmt"
	"math"
	"sync/atomic"

	"stochsynth/internal/chem"
	"stochsynth/internal/sim"
)

// Output specifies one working-reaction product of an outcome: when the
// outcome's catalyst wins, the working reaction d + f → d + Count·o turns
// food into output molecules.
type Output struct {
	// Species is the output type's name (e.g. "cro2").
	Species string
	// Food is the food type's name; empty defaults to "f<outcome>".
	Food string
	// FoodQuantity is the initial food supply ("set to the maximum
	// quantity desired for the corresponding output types", §2.1.2);
	// zero defaults to 1000.
	FoodQuantity int64
	// Count is the number of output molecules per working firing
	// (the paper's "single working reaction ... with multiple output
	// types in the desired proportions"); zero defaults to 1.
	Count int64
}

// Outcome specifies one discrete outcome T_i of the stochastic module.
type Outcome struct {
	// Name suffixes the outcome's species (e<Name>, d<Name>); empty
	// defaults to the 1-based outcome index.
	Name string
	// Weight is the initial quantity E_i of the input type e_i. Together
	// with RateScale it programs p_i ∝ Weight·RateScale.
	Weight int64
	// RateScale multiplies the outcome's initializing rate k_i (the other
	// way §2.1.2 allows the distribution to be programmed); zero defaults
	// to 1.
	RateScale float64
	// Outputs lists the working reactions; empty means one default output
	// "o<Name>" fed by "f<Name>".
	Outputs []Output
}

// StochasticSpec specifies a stochastic module (§2.1): a programmable
// categorical distribution over len(Outcomes) outcomes.
type StochasticSpec struct {
	Outcomes []Outcome
	// Gamma is the rate-separation factor γ of Equation 1 (must be ≥ 1;
	// γ=1 means no separation — the leftmost point of Figure 3, with
	// errors near 50% — while the paper's lambda model uses 10⁹).
	Gamma float64
	// BaseRate is the unit k of Equation 1 (zero defaults to 1):
	// initializing fires at BaseRate·RateScale_i, working at BaseRate,
	// reinforcing and stabilizing at γ·BaseRate, purifying at γ²·BaseRate.
	BaseRate float64
	// Prefix namespaces every species the module creates, so multiple
	// modules can coexist in one network.
	Prefix string
}

// StochasticModule is a built stochastic module: the generated network plus
// handles for driving and classifying simulations.
type StochasticModule struct {
	Net  *chem.Network
	Spec StochasticSpec

	// Inputs[i] is the species index of e_i; Catalysts[i] of d_i.
	Inputs    []chem.Species
	Catalysts []chem.Species
	// Outputs[i][k] / Foods[i][k] are the k-th output/food species of
	// outcome i.
	Outputs [][]chem.Species
	Foods   [][]chem.Species

	// initOutcome maps a reaction index to the outcome whose initializing
	// reaction it is (-1 otherwise).
	initOutcome []int
	// initial is Net's initial state, snapshotted at Build so race trials
	// Reset engines to it without cloning (engines copy on Reset).
	initial chem.State
	// races holds the race list of the last threshold RunRaceWith raced
	// on (see raceThresholds), shared by pointer with copies of the module.
	races *atomic.Pointer[raceList]
}

// raceList is the threshold list RunRaceWith races a module on for one
// threshold: one single-species threshold per outcome, or nil when some
// outcome has two or more outputs (their sum reaches the threshold, which
// no single-species threshold expresses).
type raceList struct {
	threshold int64
	ths       []sim.SpeciesThreshold
}

// Build validates the spec and generates the module's five reaction
// categories into a fresh network.
func (spec StochasticSpec) Build() (*StochasticModule, error) {
	m := len(spec.Outcomes)
	if m < 2 {
		return nil, fmt.Errorf("synth: stochastic module needs at least 2 outcomes, got %d", m)
	}
	if spec.Gamma < 1 || math.IsNaN(spec.Gamma) || math.IsInf(spec.Gamma, 0) {
		return nil, fmt.Errorf("synth: Gamma must be finite and >= 1, got %v", spec.Gamma)
	}
	if spec.BaseRate == 0 {
		spec.BaseRate = 1
	}
	if spec.BaseRate < 0 || math.IsNaN(spec.BaseRate) || math.IsInf(spec.BaseRate, 0) {
		return nil, fmt.Errorf("synth: invalid BaseRate %v", spec.BaseRate)
	}
	totalWeight := int64(0)
	for i := range spec.Outcomes {
		o := &spec.Outcomes[i]
		if o.Weight < 0 {
			return nil, fmt.Errorf("synth: outcome %d has negative weight %d", i, o.Weight)
		}
		totalWeight += o.Weight
		if o.RateScale == 0 {
			o.RateScale = 1
		}
		if o.RateScale < 0 || math.IsNaN(o.RateScale) || math.IsInf(o.RateScale, 0) {
			return nil, fmt.Errorf("synth: outcome %d has invalid RateScale %v", i, o.RateScale)
		}
		if o.Name == "" {
			o.Name = fmt.Sprintf("%d", i+1)
		}
		if len(o.Outputs) == 0 {
			o.Outputs = []Output{{}}
		}
		for k := range o.Outputs {
			out := &o.Outputs[k]
			if out.Species == "" {
				out.Species = "o" + o.Name
			}
			if out.Food == "" {
				out.Food = "f" + o.Name
			}
			if out.FoodQuantity == 0 {
				out.FoodQuantity = 1000
			}
			if out.FoodQuantity < 0 {
				return nil, fmt.Errorf("synth: outcome %d output %d has negative food quantity", i, k)
			}
			if out.Count == 0 {
				out.Count = 1
			}
			if out.Count < 0 {
				return nil, fmt.Errorf("synth: outcome %d output %d has negative count", i, k)
			}
		}
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("synth: total outcome weight must be positive")
	}
	for i := range spec.Outcomes {
		for j := i + 1; j < m; j++ {
			if spec.Outcomes[i].Name == spec.Outcomes[j].Name {
				return nil, fmt.Errorf("synth: outcomes %d and %d share name %q", i, j, spec.Outcomes[i].Name)
			}
		}
	}

	b := chem.NewBuilder()
	mod := &StochasticModule{Net: b.Network(), Spec: spec}
	kInit := func(i int) float64 { return spec.BaseRate * spec.Outcomes[i].RateScale }
	kReinforce := spec.Gamma * spec.BaseRate
	kStabilize := spec.Gamma * spec.BaseRate
	kPurify := spec.Gamma * spec.Gamma * spec.BaseRate
	kWork := spec.BaseRate

	eName := func(i int) string { return name(spec.Prefix, "e"+spec.Outcomes[i].Name) }
	dName := func(i int) string { return name(spec.Prefix, "d"+spec.Outcomes[i].Name) }

	// Species and initial quantities first, in a stable order.
	for i, o := range spec.Outcomes {
		mod.Inputs = append(mod.Inputs, b.Species(eName(i)))
		mod.Catalysts = append(mod.Catalysts, b.Species(dName(i)))
		b.Init(eName(i), o.Weight)
	}
	for _, o := range spec.Outcomes {
		var foods, outs []chem.Species
		for _, out := range o.Outputs {
			f := b.Species(name(spec.Prefix, out.Food))
			b.Init(name(spec.Prefix, out.Food), out.FoodQuantity)
			foods = append(foods, f)
			outs = append(outs, b.Species(name(spec.Prefix, out.Species)))
		}
		mod.Foods = append(mod.Foods, foods)
		mod.Outputs = append(mod.Outputs, outs)
	}

	// Initializing: ∀i. e_i → d_i at k_i. The slowest category; the first
	// to fire generally determines the outcome.
	initStart := mod.Net.NumReactions()
	for i := range spec.Outcomes {
		b.Rxn(LabelInitializing).In(eName(i), 1).Out(dName(i), 1).Rate(kInit(i))
	}
	// Reinforcing: ∀i. d_i + e_i → 2d_i. Amplifies the initial choice.
	for i := range spec.Outcomes {
		b.Rxn(LabelReinforcing).In(dName(i), 1).In(eName(i), 1).Out(dName(i), 2).Rate(kReinforce)
	}
	// Stabilizing: ∀ j≠i. d_i + e_j → d_i. Starves competing outcomes.
	for i := range spec.Outcomes {
		for j := range spec.Outcomes {
			if j == i {
				continue
			}
			b.Rxn(LabelStabilizing).In(dName(i), 1).In(eName(j), 1).Out(dName(i), 1).Rate(kStabilize)
		}
	}
	// Purifying: ∀ i<j. d_i + d_j → ∅. The fastest category; minority
	// catalysts are wiped out. Each unordered pair is one channel (as in
	// Figure 4's single d1+d2 reaction).
	for i := range spec.Outcomes {
		for j := i + 1; j < m; j++ {
			b.Rxn(LabelPurifying).In(dName(i), 1).In(dName(j), 1).Rate(kPurify)
		}
	}
	// Working: ∀i,ℓ. d_i + f_ℓ → d_i + Count·o_ℓ. Turns the decision into
	// output production.
	for i, o := range spec.Outcomes {
		for _, out := range o.Outputs {
			b.Rxn(LabelWorking).
				In(dName(i), 1).In(name(spec.Prefix, out.Food), 1).
				Out(dName(i), 1).Out(name(spec.Prefix, out.Species), out.Count).
				Rate(kWork)
		}
	}

	mod.initOutcome = make([]int, mod.Net.NumReactions())
	for r := range mod.initOutcome {
		mod.initOutcome[r] = -1
	}
	for i := 0; i < m; i++ {
		mod.initOutcome[initStart+i] = i
	}
	mod.initial = mod.Net.InitialState()
	// RunRaceWith reads the first initializing outcome off the catalysts,
	// which is exact only while every catalyst starts at zero.
	for i, c := range mod.Catalysts {
		if mod.initial[c] != 0 {
			return nil, fmt.Errorf("synth: catalyst %s of outcome %d starts at %d, want 0 (a food shares its name)",
				dName(i), i, mod.initial[c])
		}
	}
	mod.races = new(atomic.Pointer[raceList])
	return mod, nil
}

// Probabilities returns the programmed outcome distribution
// p_i = E_i·k_i / Σ_j E_j·k_j (§2.1.2).
func (m *StochasticModule) Probabilities() []float64 {
	total := 0.0
	weights := make([]float64, len(m.Spec.Outcomes))
	for i, o := range m.Spec.Outcomes {
		weights[i] = float64(o.Weight) * o.RateScale
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// InitializingOutcome reports which outcome's initializing reaction the
// given reaction index is, or -1 if it is not an initializing reaction.
// Event observers can use it to record the first initializing firing (the
// paper's error criterion for Figure 3); RunRaceWith needs no observer
// and reads that firing off the catalysts instead.
func (m *StochasticModule) InitializingOutcome(reaction int) int {
	if reaction < 0 || reaction >= len(m.initOutcome) {
		return -1
	}
	return m.initOutcome[reaction]
}

// ProtectedSpecies returns every outcome's output species, flattened: the
// set whose distribution classifiers threshold on, and therefore the
// protected set to hand a hybrid engine.
func (m *StochasticModule) ProtectedSpecies() []chem.Species {
	var out []chem.Species
	for _, outs := range m.Outputs {
		out = append(out, outs...)
	}
	return out
}

// OutputTotal sums outcome i's output counts in state st (all output
// species of the outcome).
func (m *StochasticModule) OutputTotal(st chem.State, i int) int64 {
	var total int64
	for _, sp := range m.Outputs[i] {
		total += st[sp]
	}
	return total
}

// Winner returns the outcome whose outputs have reached threshold copies in
// st, or -1 if none has. Ties (possible only in the same observation
// instant) resolve to the lowest index.
func (m *StochasticModule) Winner(st chem.State, threshold int64) int {
	for i := range m.Outputs {
		if m.OutputTotal(st, i) >= threshold {
			return i
		}
	}
	return -1
}

// catalystOutcome returns the first outcome whose catalyst is present in
// st, or -1 if none is. After a built module's first event it is the
// outcome whose initializing reaction fired (see RunRaceWith).
func (m *StochasticModule) catalystOutcome(st chem.State) int {
	for i, c := range m.Catalysts {
		if st[c] != 0 {
			return i
		}
	}
	return -1
}

// raceThresholds returns the module's race list for threshold (nil for a
// module with a multi-output outcome). A list is built once per threshold
// and never written after it is published, so every Monte Carlo worker
// shares it; only a change of threshold publishes a new one.
func (m *StochasticModule) raceThresholds(threshold int64) []sim.SpeciesThreshold {
	if l := m.races.Load(); l != nil && l.threshold == threshold {
		return l.ths
	}
	l := &raceList{threshold: threshold, ths: make([]sim.SpeciesThreshold, len(m.Outputs))}
	for i, outs := range m.Outputs {
		if len(outs) != 1 {
			l.ths = nil
			break
		}
		l.ths[i] = sim.SpeciesThreshold{Species: outs[0], Count: threshold}
	}
	m.races.Store(l)
	return l.ths
}

// ThresholdPredicate returns a sim.RunOptions.StopWhen predicate that fires
// once any outcome's outputs reach threshold copies.
func (m *StochasticModule) ThresholdPredicate(threshold int64) func(chem.State, float64) bool {
	return func(st chem.State, _ float64) bool {
		return m.Winner(st, threshold) >= 0
	}
}
