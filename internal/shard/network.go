package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// Wire format v3 lets a ShardSpec carry the network itself — the
// chem.ParseNetwork reaction-text format as the carrier — plus an
// observable/outcome spec, so a worker can run sweeps over models it has
// never seen: the spec is validated against resource limits, compiled
// with chem.Compile, and executed with exactly the per-point trial
// streams the registry-resolved sweeps use. A network sweep's identity is
// content-addressed: its sweep id is "crn/" + a hash of the canonical
// serialization of everything that determines the trial function, so two
// coordinators submitting the same model merge bit-for-bit and two
// different models can never be confused by a shared name.

// Resource limits for wire-submitted networks. A worker is a shared
// service; these bound what one spec can make it do. They are part of the
// wire contract: raising them is backward compatible, lowering them is
// not (previously valid specs would be rejected).
const (
	// MaxNetworkBytes bounds the serialized network text.
	MaxNetworkBytes = 1 << 20
	// MaxNetworkSpecies and MaxNetworkReactions bound the parsed network.
	MaxNetworkSpecies   = 1 << 10
	MaxNetworkReactions = 1 << 12
	// MaxNetworkTrials bounds Trials of a network sweep spec.
	MaxNetworkTrials = 10_000_000
	// MaxNetworkGrid bounds the parameter grid of a network sweep spec.
	MaxNetworkGrid = 1 << 10
	// MaxNetworkSteps bounds the per-trial jump-chain length; it is also
	// the default when a spec leaves MaxSteps zero.
	MaxNetworkSteps = 50_000_000
	// DefaultNetworkSteps is the per-trial step bound used when the spec
	// does not set one (matches the builtin race sweeps).
	DefaultNetworkSteps = 5_000_000
)

// NetworkOutcomes is the outcome arity of every network sweep: the
// observable classifies each trial as 0 (A side) or 1 (B side), with
// mc.None for trials that resolve neither.
const NetworkOutcomes = 2

// Observable kinds.
const (
	// ObsRace: the trial is a threshold race on the embedded jump chain —
	// outcome 0 if species A reaches CountA strictly first, 1 for B, and
	// mc.None if the chain hits the step bound or quiesces with neither
	// threshold reached.
	ObsRace = "race"
	// ObsEndpoint: the trial runs the jump chain to the step bound (or
	// quiescence) and classifies the final state — outcome 0 if species A
	// ends at or above CountA, 1 otherwise. This is the observable for
	// one-species bistability (Schlögl), where both attractors live on the
	// same coordinate.
	ObsEndpoint = "endpoint"
)

// ObservableSpec says what one trial of a network sweep measures. The
// integer observable (mc.Obs.IValue, histogrammed by dist sweeps) and the
// continuous observable (mc.Obs.Value, summarised by moments and quantile
// sketch) are the final count of the Value species — or, when Value is
// empty, the final margin count(A) − count(B).
type ObservableSpec struct {
	// Kind is ObsRace or ObsEndpoint.
	Kind string `json:"kind"`
	// SpeciesA / CountA name the first threshold (race) or the
	// classification split (endpoint).
	SpeciesA string `json:"speciesA"`
	CountA   int64  `json:"countA"`
	// SpeciesB / CountB name the second race threshold (race only).
	SpeciesB string `json:"speciesB,omitempty"`
	CountB   int64  `json:"countB,omitempty"`
	// Value names the species whose final count is the trial's observable
	// value; empty means the margin count(A) − count(B).
	Value string `json:"value,omitempty"`
}

// ParamSpec says how one grid value is applied to the network, making a
// sweep out of a single model. At most one field is set; a nil ParamSpec
// means grid values are labels only (every point runs the same model on
// its own seed stream).
type ParamSpec struct {
	// Species: the grid value (a non-negative integer) becomes the initial
	// count of this species.
	Species string `json:"species,omitempty"`
	// Rate: the grid value (non-negative, finite) becomes the rate
	// constant of every reaction carrying this label.
	Rate string `json:"rate,omitempty"`
}

// NetworkSpec is the self-contained description of a user-submitted
// sweep: the network text, the engine, the observable, and how the grid
// parameter acts on the model. Format version 3 carries it inline in the
// ShardSpec.
type NetworkSpec struct {
	// CRN is the network in the chem.ParseNetwork text format, including
	// initial counts.
	CRN string `json:"crn"`
	// Engine selects the simulation engine (sim.ParseEngineKind); empty
	// means the optimized exact engine.
	Engine string `json:"engine,omitempty"`
	// MaxSteps bounds each trial's jump chain; 0 means
	// DefaultNetworkSteps. Capped at MaxNetworkSteps.
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// Observable defines the per-trial measurement.
	Observable ObservableSpec `json:"observable"`
	// Param defines the grid parameter's action; nil means none.
	Param *ParamSpec `json:"param,omitempty"`
	// Hist fixes the histogram layout of the integer observable; required
	// for dist sweeps, forbidden otherwise (mirrors Factory.Hist).
	Hist *mc.HistConfig `json:"hist,omitempty"`
}

// parse parses and bounds-checks the network text.
func (ns *NetworkSpec) parse() (*chem.Network, error) {
	if ns.CRN == "" {
		return nil, fmt.Errorf("shard: network spec has empty crn text")
	}
	if len(ns.CRN) > MaxNetworkBytes {
		return nil, fmt.Errorf("shard: network text is %d bytes, limit %d", len(ns.CRN), MaxNetworkBytes)
	}
	net, err := chem.ParseNetworkString(ns.CRN)
	if err != nil {
		return nil, fmt.Errorf("shard: network: %w", err)
	}
	if err := chem.CheckLimits(net, chem.Limits{
		MaxSpecies: MaxNetworkSpecies, MaxReactions: MaxNetworkReactions,
	}); err != nil {
		return nil, fmt.Errorf("shard: network: %w", err)
	}
	if errs := chem.Errors(chem.Validate(net)); len(errs) > 0 {
		return nil, fmt.Errorf("shard: network: %s", errs[0].Msg)
	}
	return net, nil
}

// Validate checks the spec against a parsed network and the sweep kind
// flags, returning the parsed network for reuse.
func (ns *NetworkSpec) validate(numeric, dist bool) (*chem.Network, error) {
	net, err := ns.parse()
	if err != nil {
		return nil, err
	}
	if _, err := sim.ParseEngineKind(ns.Engine); err != nil {
		return nil, fmt.Errorf("shard: network: %w", err)
	}
	if ns.MaxSteps < 0 || ns.MaxSteps > MaxNetworkSteps {
		return nil, fmt.Errorf("shard: network maxSteps %d outside [0, %d]", ns.MaxSteps, MaxNetworkSteps)
	}
	o := ns.Observable
	switch o.Kind {
	case ObsRace:
		if o.SpeciesB == "" {
			return nil, fmt.Errorf("shard: race observable needs speciesB")
		}
		if o.CountB <= 0 {
			return nil, fmt.Errorf("shard: race observable countB must be > 0 (got %d)", o.CountB)
		}
		if o.SpeciesA == o.SpeciesB {
			return nil, fmt.Errorf("shard: race observable races %q against itself", o.SpeciesA)
		}
		if _, ok := net.SpeciesByName(o.SpeciesB); !ok {
			return nil, fmt.Errorf("shard: observable species %q not in network", o.SpeciesB)
		}
	case ObsEndpoint:
		if o.SpeciesB != "" || o.CountB != 0 {
			return nil, fmt.Errorf("shard: endpoint observable must not set speciesB/countB")
		}
	default:
		return nil, fmt.Errorf("shard: unknown observable kind %q (want %q or %q)", o.Kind, ObsRace, ObsEndpoint)
	}
	if o.CountA <= 0 {
		return nil, fmt.Errorf("shard: observable countA must be > 0 (got %d)", o.CountA)
	}
	if _, ok := net.SpeciesByName(o.SpeciesA); !ok {
		return nil, fmt.Errorf("shard: observable species %q not in network", o.SpeciesA)
	}
	if o.Value != "" {
		if _, ok := net.SpeciesByName(o.Value); !ok {
			return nil, fmt.Errorf("shard: observable value species %q not in network", o.Value)
		}
	}
	if p := ns.Param; p != nil {
		switch {
		case p.Species != "" && p.Rate != "":
			return nil, fmt.Errorf("shard: network param sets both species and rate")
		case p.Species == "" && p.Rate == "":
			return nil, fmt.Errorf("shard: network param sets neither species nor rate")
		case p.Species != "":
			if _, ok := net.SpeciesByName(p.Species); !ok {
				return nil, fmt.Errorf("shard: param species %q not in network", p.Species)
			}
		default:
			found := false
			for i := range net.Reactions() {
				if net.Reaction(i).Label == p.Rate {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("shard: param rate label %q matches no reaction", p.Rate)
			}
		}
	}
	switch {
	case dist:
		if ns.Hist == nil {
			return nil, fmt.Errorf("shard: network dist sweep needs a histogram config")
		}
		if err := ns.Hist.Validate(); err != nil {
			return nil, fmt.Errorf("shard: network: %w", err)
		}
	case ns.Hist != nil:
		return nil, fmt.Errorf("shard: non-dist network sweep carries a histogram config")
	}
	return net, nil
}

// SweepID returns the content-addressed sweep id of the spec: "crn/" plus
// a truncated SHA-256 over the *canonical* network serialization
// (chem.AppendCRN of the parsed network, so formatting and comments do
// not fork identities) and every field that shapes the trial function. A
// ShardSpec carrying a network must use it as the Sweep id — Validate
// enforces the match, which is what makes journal replay and cross-
// coordinator merges safe for models that share no registry.
func (ns *NetworkSpec) SweepID() (string, error) {
	net, err := ns.parse()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	canonical := chem.AppendCRN(nil, net)
	fmt.Fprintf(h, "crn %d\n", len(canonical))
	h.Write(canonical)
	fmt.Fprintf(h, "engine %s\nmaxSteps %d\n", ns.Engine, ns.MaxSteps)
	o := ns.Observable
	fmt.Fprintf(h, "obs %s %s %d %s %d %s\n", o.Kind, o.SpeciesA, o.CountA, o.SpeciesB, o.CountB, o.Value)
	if p := ns.Param; p != nil {
		fmt.Fprintf(h, "param %s %s\n", p.Species, p.Rate)
	}
	if ns.Hist != nil {
		fmt.Fprintf(h, "hist %d %d %d\n", ns.Hist.Lo, ns.Hist.Width, ns.Hist.Bins)
	}
	return "crn/" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// equalNetworkSpec reports whether two optional network payloads describe
// the same sweep, field for field.
func equalNetworkSpec(a, b *NetworkSpec) bool {
	switch {
	case a == nil || b == nil:
		return a == b
	case a.CRN != b.CRN || a.Engine != b.Engine || a.MaxSteps != b.MaxSteps || a.Observable != b.Observable:
		return false
	case (a.Param == nil) != (b.Param == nil), a.Param != nil && *a.Param != *b.Param:
		return false
	case (a.Hist == nil) != (b.Hist == nil), a.Hist != nil && *a.Hist != *b.Hist:
		return false
	}
	return true
}

// applyParam applies one grid value to the model per the ParamSpec,
// cloning when it mutates.
func applyParam(net *chem.Network, p *ParamSpec, param float64) (*chem.Network, error) {
	if p == nil {
		return net, nil
	}
	if p.Species != "" {
		count := int64(param)
		if float64(count) != param || count < 0 {
			return nil, fmt.Errorf("grid value %v is not a valid initial count for species %s", param, p.Species)
		}
		mod := net.Clone()
		mod.SetInitialByName(p.Species, count)
		return mod, nil
	}
	if math.IsNaN(param) || math.IsInf(param, 0) || param < 0 {
		return nil, fmt.Errorf("grid value %v is not a valid rate for label %s", param, p.Rate)
	}
	mod := net.Clone()
	for i := range mod.Reactions() {
		if r := mod.Reaction(i); r.Label == p.Rate {
			r.Rate = param
		}
	}
	return mod, nil
}

// networkObservable is the compiled per-point trial body shared by all
// three sweep kinds, so a tally sweep, a numeric sweep and a dist sweep
// of the same spec consume identical randomness per trial.
type networkObservable struct {
	comp     *chem.Compiled
	st0      chem.State
	kind     sim.EngineKind
	ths      []sim.SpeciesThreshold // race: A's, then B's; endpoint: none
	spA, spB chem.Species
	endpoint bool
	split    int64        // endpoint classification threshold on spA
	value    chem.Species // species observed; chem.Species(-1) = margin A−B
	maxSteps int64
	protect  []chem.Species
}

// pilotEvents is the length of the deterministic pilot jump chain used to
// order wide wire-submitted networks (chem.CompilePilot). A fixed constant:
// the ordering — and hence the trial streams — must be identical on every
// worker in a fleet.
const pilotEvents = 512

// compileNetworkModel lowers a wire-submitted network. Narrow networks
// keep Compile's initial-state ordering (the historical, fixture-pinned
// streams); at chem.BlockThreshold channels and up — where the block-sum
// selection structure engages and no pinned stream exists — the ordering
// comes from a short deterministic pilot run, which ranks mid-trajectory
// hot channels that the initial state alone mis-ranks.
func compileNetworkModel(mod *chem.Network) *chem.Compiled {
	if mod.NumReactions() >= chem.BlockThreshold {
		return chem.CompilePilot(mod, pilotEvents)
	}
	return chem.Compile(mod)
}

// compileObservable builds the trial body for one grid value.
func compileObservable(net *chem.Network, ns *NetworkSpec, param float64) (*networkObservable, error) {
	mod, err := applyParam(net, ns.Param, param)
	if err != nil {
		return nil, err
	}
	kind, err := sim.ParseEngineKind(ns.Engine)
	if err != nil {
		return nil, err
	}
	o := ns.Observable
	no := &networkObservable{
		comp:     compileNetworkModel(mod),
		st0:      mod.InitialState(),
		kind:     kind,
		maxSteps: ns.MaxSteps,
		endpoint: o.Kind == ObsEndpoint,
		value:    chem.Species(-1),
	}
	if no.maxSteps == 0 {
		no.maxSteps = DefaultNetworkSteps
	}
	no.spA = mod.MustSpecies(o.SpeciesA)
	no.protect = append(no.protect, no.spA)
	if no.endpoint {
		// No race thresholds: the fused race loop runs to the step bound
		// (or quiescence) and the final state is classified.
		no.split = o.CountA
		no.value = no.spA
	} else {
		no.spB = mod.MustSpecies(o.SpeciesB)
		no.ths = []sim.SpeciesThreshold{
			{Species: no.spA, Count: o.CountA},
			{Species: no.spB, Count: o.CountB},
		}
		no.protect = append(no.protect, no.spB)
	}
	if o.Value != "" {
		no.value = mod.MustSpecies(o.Value)
		no.protect = append(no.protect, no.value)
	}
	return no, nil
}

func (no *networkObservable) newEngine(gen *rng.PCG) sim.Engine {
	return sim.MustEngineOfKindCompiled(no.kind, no.comp, no.protect, gen)
}

// observe runs one trial: reset to the initial state, race (or run out)
// the jump chain, classify, and read the observable.
func (no *networkObservable) observe(e sim.Engine) mc.Obs {
	e.Reset(no.st0, 0)
	res := sim.RunThresholdRace(e, no.ths, no.maxSteps)
	st := e.State()
	obs := mc.Obs{Outcome: mc.None, Steps: res.Steps}
	if no.endpoint {
		// With no thresholds any stop reason is the trial's endpoint;
		// classify the final state by the split.
		if st[no.spA] >= no.split {
			obs.Outcome = 0
		} else {
			obs.Outcome = 1
		}
	} else if res.Reason == sim.StopPredicate {
		// Exactly one threshold fires per fused-race step; A is checked
		// first on ties, matching the engine's own race loops.
		if st[no.spA] >= no.ths[0].Count {
			obs.Outcome = 0
		} else {
			obs.Outcome = 1
		}
	}
	if no.value >= 0 {
		obs.IValue = st[no.value]
	} else {
		obs.IValue = st[no.spA] - st[no.spB]
	}
	obs.Value = float64(obs.IValue)
	return obs
}

// NetworkFactory compiles a NetworkSpec into the trial factory its shards
// run — the same Factory shape the registry serves, built by the same
// adapters from one observe body per grid point, so Run treats registry
// sweeps and wire-submitted networks identically after resolution. The
// sweep kind is selected exactly as for ShardSpec: numeric (measuring the
// observable value), dist, or (neither) tally with NetworkOutcomes
// outcomes.
func NetworkFactory(ns *NetworkSpec, numeric, dist bool) (Factory, error) {
	if numeric && dist {
		return Factory{}, fmt.Errorf("shard: network sweep cannot be both numeric and dist")
	}
	net, err := ns.validate(numeric, dist)
	if err != nil {
		return Factory{}, err
	}
	build := pointFunc(func(param float64) (point, error) {
		no, err := compileObservable(net, ns, param)
		if err != nil {
			return point{}, err
		}
		return point{newEngine: no.newEngine, observe: no.observe}, nil
	})
	switch {
	case numeric:
		return build.numeric(func(o mc.Obs) float64 { return o.Value }), nil
	case dist:
		return build.dist(NetworkOutcomes, *ns.Hist), nil
	}
	return build.tally(NetworkOutcomes), nil
}

// validateNetworkSpec is the ShardSpec.Validate hook for network-carrying
// specs: resource limits on the sweep shape, full NetworkSpec validation,
// and the content-addressed identity check.
func (s ShardSpec) validateNetwork() error {
	ns := s.Network
	if s.Trials > MaxNetworkTrials {
		return fmt.Errorf("shard: network sweep asks %d trials, limit %d", s.Trials, MaxNetworkTrials)
	}
	if len(s.Grid) > MaxNetworkGrid {
		return fmt.Errorf("shard: network sweep grid has %d points, limit %d", len(s.Grid), MaxNetworkGrid)
	}
	if !s.Numeric && s.Outcomes != NetworkOutcomes {
		return fmt.Errorf("shard: network sweep needs outcomes = %d (got %d)", NetworkOutcomes, s.Outcomes)
	}
	if _, err := ns.validate(s.Numeric, s.Dist); err != nil {
		return err
	}
	id, err := ns.SweepID()
	if err != nil {
		return err
	}
	if s.Sweep != id {
		return fmt.Errorf("shard: network sweep id %q does not match content id %q", s.Sweep, id)
	}
	return nil
}
