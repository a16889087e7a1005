package shard

import (
	"fmt"
	"sort"
	"sync"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// OutcomeTrial is the engine-reuse form of one tally-sweep trial body:
// NewEngine builds a worker's engine once, Classify runs one trial on it
// (after the worker's generator has been reseeded onto the trial stream)
// and returns an outcome index or mc.None. Engines are opaque to the
// shard layer, so factories for any engine type share one registry.
type OutcomeTrial struct {
	NewEngine func(gen *rng.PCG) any
	Classify  func(eng any) int
}

// NumericTrial is the engine-reuse form of one numeric-sweep trial body.
type NumericTrial struct {
	NewEngine func(gen *rng.PCG) any
	Measure   func(eng any) float64
}

// DistTrial is the engine-reuse form of one distribution-sweep trial
// body: Observe runs one trial and returns the full mc.Obs bundle
// (continuous value, integer value, race outcome, jump-chain step count).
type DistTrial struct {
	NewEngine func(gen *rng.PCG) any
	Observe   func(eng any) mc.Obs
}

// Factory builds the trial body of one named sweep for a parameter value.
// Exactly one of Outcome/NumericF/DistF is set, matching the
// Outcomes/Numeric/Dist fields.
type Factory struct {
	// Outcomes is the outcome arity of tally sweeps, or the first-passage
	// arity of dist sweeps (> 0 iff Outcome or DistF is set).
	Outcomes int
	// Numeric marks a numeric sweep (iff NumericF is set).
	Numeric bool
	// Dist marks a distribution sweep (iff DistF is set).
	Dist bool
	// Hist fixes the histogram layout of a dist sweep (dist only).
	Hist mc.HistConfig
	// Outcome builds the tally trial body at one grid value.
	Outcome func(param float64) (OutcomeTrial, error)
	// NumericF builds the numeric trial body at one grid value.
	NumericF func(param float64) (NumericTrial, error)
	// DistF builds the distribution trial body at one grid value.
	DistF func(param float64) (DistTrial, error)
}

// point is the trial body of one grid point: the engine factory each
// worker calls once, and the observer that runs one trial on a worker's
// engine. The tally, numeric and dist forms of a sweep (pointFunc.tally,
// .numeric, .dist) all wrap the same point, so they consume identical
// randomness trial for trial.
type point struct {
	newEngine func(gen *rng.PCG) sim.Engine
	observe   func(eng sim.Engine) mc.Obs
}

func (p point) engine(gen *rng.PCG) any { return p.newEngine(gen) }

// pointFunc builds the trial body at one grid value.
type pointFunc func(param float64) (point, error)

// tally is the tally form: each trial is counted under its observed
// Outcome.
func (build pointFunc) tally(outcomes int) Factory {
	return Factory{
		Outcomes: outcomes,
		Outcome: func(param float64) (OutcomeTrial, error) {
			p, err := build(param)
			if err != nil {
				return OutcomeTrial{}, err
			}
			return OutcomeTrial{
				NewEngine: p.engine,
				Classify:  func(eng any) int { return p.observe(eng.(sim.Engine)).Outcome },
			}, nil
		},
	}
}

// numeric is the numeric form: each trial's value is measure applied to
// its observation.
func (build pointFunc) numeric(measure func(mc.Obs) float64) Factory {
	return Factory{
		Numeric: true,
		NumericF: func(param float64) (NumericTrial, error) {
			p, err := build(param)
			if err != nil {
				return NumericTrial{}, err
			}
			return NumericTrial{
				NewEngine: p.engine,
				Measure:   func(eng any) float64 { return measure(p.observe(eng.(sim.Engine))) },
			}, nil
		},
	}
}

// dist is the distribution form: each trial's whole observation feeds the
// point's mc.DistSummary, whose histogram has the layout hist.
func (build pointFunc) dist(outcomes int, hist mc.HistConfig) Factory {
	return Factory{
		Outcomes: outcomes,
		Dist:     true,
		Hist:     hist,
		DistF: func(param float64) (DistTrial, error) {
			p, err := build(param)
			if err != nil {
				return DistTrial{}, err
			}
			return DistTrial{
				NewEngine: p.engine,
				Observe:   func(eng any) mc.Obs { return p.observe(eng.(sim.Engine)) },
			}, nil
		},
	}
}

// Registry maps sweep ids to trial factories, making a ShardSpec runnable
// by name in a process that shares nothing with the coordinator but the
// binary. It is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register installs a factory under a sweep id. Re-registering a name or
// registering a malformed factory panics: registries are assembled at
// startup, so both are programmer errors.
func (r *Registry) Register(name string, f Factory) {
	if name == "" {
		panic("shard: Register with empty sweep id")
	}
	switch {
	case f.Numeric && f.Dist:
		panic(fmt.Sprintf("shard: factory %q sets both Numeric and Dist", name))
	case f.Numeric && (f.NumericF == nil || f.Outcome != nil || f.DistF != nil || f.Outcomes != 0):
		panic(fmt.Sprintf("shard: numeric factory %q must set exactly NumericF", name))
	case f.Dist && (f.DistF == nil || f.Outcome != nil || f.NumericF != nil || f.Outcomes <= 0):
		panic(fmt.Sprintf("shard: dist factory %q must set Outcomes > 0 and exactly DistF", name))
	case f.Dist && f.Hist.Validate() != nil:
		panic(fmt.Sprintf("shard: dist factory %q has an invalid histogram config", name))
	case !f.Numeric && !f.Dist && (f.Outcome == nil || f.NumericF != nil || f.DistF != nil || f.Outcomes <= 0):
		panic(fmt.Sprintf("shard: tally factory %q must set Outcomes > 0 and exactly Outcome", name))
	case !f.Dist && f.Hist != (mc.HistConfig{}):
		panic(fmt.Sprintf("shard: non-dist factory %q carries a histogram config", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("shard: sweep %q registered twice", name))
	}
	r.factories[name] = f
}

// Lookup resolves a sweep id, listing the known ids on failure.
func (r *Registry) Lookup(name string) (Factory, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.factories[name]
	if !ok {
		return Factory{}, fmt.Errorf("shard: unknown sweep %q (known: %v)", name, r.namesLocked())
	}
	return f, nil
}

// Names returns the registered sweep ids, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
