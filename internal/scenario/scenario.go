// Package scenario is the pinned library of canonical stochastic
// networks the system is exercised against: each scenario bundles a
// network in the chem.ParseNetwork text format, an engine
// characterisation, an observable, and a statistical pin — an expected
// outcome proportion (and observable mean) with a tolerance wide enough
// to never flake yet tight enough to catch a broken propensity, stream,
// or merge. The library serves three masters at once: it is the
// conformance suite for wire-submitted networks (every scenario runs
// end-to-end over the v3 shard format), the corpus for the parser and
// decoder fuzzers, and a ready-made set of models for sweepd users.
//
// The networks are classics of the synthetic/stochastic-biology
// literature re-expressed in elementary mass-action form: the genetic
// toggle switch, the repressilator, Schlögl's bistable network, the
// antithetic integral feedback controller of Briat & Khammash, and a
// Plesa-style quadratic noise-control module.
package scenario

import (
	"embed"
	"fmt"
	"sort"

	"stochsynth/internal/mc"
	"stochsynth/internal/shard"
)

//go:embed networks/*.crn
var networkFiles embed.FS

// Pin is the statistical contract of one grid point: the expected
// proportion of outcome 0 and the expected mean of the observable value,
// each with an absolute tolerance set ≳5σ above the sampling noise at
// the scenario's pinned (seed, trials), so a pin failure means the
// simulator changed, not that the dice came up cold.
type Pin struct {
	P0      float64
	P0Tol   float64
	Mean    float64
	MeanTol float64
}

// Scenario is one pinned model: everything needed to build the
// self-contained v3 wire spec, plus the characterisation the conformance
// tests hold the system to.
type Scenario struct {
	Name        string
	Description string
	// CRN is the network text, loaded from networks/<Name>.crn.
	CRN string
	// Engine and MaxSteps configure the NetworkSpec ("" = default engine).
	Engine   string
	MaxSteps int64
	// Observable, Param and Hist mirror the NetworkSpec fields.
	Observable shard.ObservableSpec
	Param      *shard.ParamSpec
	Hist       mc.HistConfig
	// Grid, Trials and Seed fix the pinned sweep.
	Grid   []float64
	Trials int
	Seed   uint64
	// Hybrid characterises partitionability: true iff chem.NewPartition,
	// with the observable species protected, marks any reaction
	// fast-eligible — a precondition for a relay, not a relay. On
	// antithetic and repressilator no relay forms, so the hybrid batches
	// nothing there and steps as Direct does. The cross-engine matrix
	// includes the hybrid engine exactly when this is true, and asserts the
	// characterisation still holds.
	Hybrid bool
	// Pins[i] is the statistical contract at Grid[i].
	Pins []Pin
}

// NetworkSpec returns the scenario's self-contained wire payload.
func (s *Scenario) NetworkSpec() *shard.NetworkSpec {
	hist := s.Hist
	return &shard.NetworkSpec{
		CRN:        s.CRN,
		Engine:     s.Engine,
		MaxSteps:   s.MaxSteps,
		Observable: s.Observable,
		Param:      s.Param,
		Hist:       &hist,
	}
}

// SweepSpec returns the pinned distribution sweep of the scenario as a
// network-carrying (wire v3) sweep: the sweep id is the content address
// of the model, so shards of it merge with any other submission of the
// same model, registry or not.
func (s *Scenario) SweepSpec() (shard.SweepSpec, error) {
	ns := s.NetworkSpec()
	id, err := ns.SweepID()
	if err != nil {
		return shard.SweepSpec{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return shard.SweepSpec{
		Sweep:    id,
		Grid:     s.Grid,
		Trials:   s.Trials,
		Seed:     s.Seed,
		Outcomes: shard.NetworkOutcomes,
		Dist:     true,
		Network:  ns,
	}, nil
}

// RegistryName is the id the scenario's factory is registered under.
func (s *Scenario) RegistryName() string { return "scenario/" + s.Name }

// All returns the scenarios in name order.
func All() []*Scenario {
	out := make([]*Scenario, len(library))
	copy(out, library)
	return out
}

// ByName resolves one scenario.
func ByName(name string) (*Scenario, bool) {
	for _, s := range library {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Register installs every scenario's distribution-sweep factory under
// "scenario/<name>", so a worker can also serve the library by name (a
// registry sweep), not only by wire-submitted network. Both roads build
// the factory from the same NetworkSpec, so they draw identical trial
// streams.
func Register(reg *shard.Registry) {
	for _, s := range library {
		f, err := shard.NetworkFactory(s.NetworkSpec(), false, true)
		if err != nil {
			panic(fmt.Sprintf("scenario %s: %v", s.Name, err))
		}
		reg.Register(s.RegistryName(), f)
	}
}

// library is sorted by name at init; pins are set empirically at the
// scenarios' (seed, trials) and verified by the conformance tests.
var library = []*Scenario{
	{
		Name: "antithetic",
		Description: "Antithetic integral feedback (Briat & Khammash) around a " +
			"two-stage birth-death plant; the controller pins E[x2] at mu/theta = 10.",
		MaxSteps:   20_000,
		Observable: shard.ObservableSpec{Kind: shard.ObsEndpoint, SpeciesA: "x2", CountA: 10, Value: "x2"},
		Hist:       mc.HistConfig{Lo: 0, Width: 1, Bins: 50},
		Grid:       []float64{0},
		Trials:     800,
		Seed:       404,
		Hybrid:     true,
		Pins:       []Pin{{P0: 0.66, P0Tol: 0.10, Mean: 12.5, MeanTol: 1.5}},
	},
	{
		Name: "plesa",
		Description: "Plesa-style noise-controlled module: zeroth-order source vs " +
			"quadratic annihilation, sub-Poissonian stationary copy number near 20.",
		MaxSteps:   2_000,
		Observable: shard.ObservableSpec{Kind: shard.ObsEndpoint, SpeciesA: "x", CountA: 20, Value: "x"},
		Hist:       mc.HistConfig{Lo: 0, Width: 1, Bins: 40},
		Grid:       []float64{0},
		Trials:     800,
		Seed:       505,
		Hybrid:     false,
		Pins:       []Pin{{P0: 0.705, P0Tol: 0.09, Mean: 20.79, MeanTol: 0.8}},
	},
	{
		Name: "repressilator",
		Description: "Three-gene repression cycle (mass-action sequestration form); " +
			"the race reads which of p1/p2 peaks first on the oscillator's first upswing.",
		MaxSteps:   200_000,
		Observable: shard.ObservableSpec{Kind: shard.ObsRace, SpeciesA: "p1", CountA: 25, SpeciesB: "p2", CountB: 25},
		Hist:       mc.HistConfig{Lo: -40, Width: 4, Bins: 20},
		Grid:       []float64{0},
		Trials:     800,
		Seed:       202,
		Hybrid:     true,
		Pins:       []Pin{{P0: 0.39, P0Tol: 0.09, Mean: -5.8, MeanTol: 4.5}},
	},
	{
		Name: "schlogl",
		Description: "Schlögl bistability: started at the unstable fixed point " +
			"(x = 248), each trial falls to the low (~85) or high (~565) attractor.",
		MaxSteps:   25_000,
		Observable: shard.ObservableSpec{Kind: shard.ObsEndpoint, SpeciesA: "x", CountA: 300},
		Param:      &shard.ParamSpec{Species: "x"},
		Hist:       mc.HistConfig{Lo: 0, Width: 25, Bins: 32},
		Grid:       []float64{248},
		Trials:     300,
		Seed:       303,
		Hybrid:     false,
		Pins:       []Pin{{P0: 0.48, P0Tol: 0.15, Mean: 315, MeanTol: 75}},
	},
	{
		Name: "toggle",
		Description: "Genetic toggle switch (mass-action mutual repression); the " +
			"race reads which protein commits first, swept over the a-side rate.",
		MaxSteps:   200_000,
		Observable: shard.ObservableSpec{Kind: shard.ObsRace, SpeciesA: "a", CountA: 40, SpeciesB: "b", CountB: 40},
		Param:      &shard.ParamSpec{Rate: "mka"},
		Hist:       mc.HistConfig{Lo: -60, Width: 4, Bins: 30},
		Grid:       []float64{50, 100},
		Trials:     800,
		Seed:       101,
		Hybrid:     false,
		Pins: []Pin{
			{P0: 0.50, P0Tol: 0.09, Mean: 0, MeanTol: 8},
			{P0: 0.70, P0Tol: 0.09, Mean: 14.6, MeanTol: 7},
		},
	},
}

func init() {
	sort.Slice(library, func(i, j int) bool { return library[i].Name < library[j].Name })
	for _, s := range library {
		raw, err := networkFiles.ReadFile("networks/" + s.Name + ".crn")
		if err != nil {
			panic(fmt.Sprintf("scenario %s: %v", s.Name, err))
		}
		s.CRN = string(raw)
		if len(s.Pins) != len(s.Grid) {
			panic(fmt.Sprintf("scenario %s: %d pins for %d grid points", s.Name, len(s.Pins), len(s.Grid)))
		}
	}
}
