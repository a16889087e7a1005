package shard

import (
	"fmt"

	"stochsynth/internal/mc"
)

// Run executes one shard in-process: for every grid point it runs the
// spec's trial range [Lo, Hi) with per-point seeds mc.PointSeed(Seed, i),
// the exact streams the single-process sweep uses, and tallies into a
// ShardResult. This is the body of LocalRunner and of every network
// worker (Server); workers on different machines produce bit-for-bit the
// results the coordinator's own process would have.
func Run(spec ShardSpec, reg *Registry) (ShardResult, error) {
	if err := spec.Validate(); err != nil {
		return ShardResult{}, err
	}
	var factory Factory
	var err error
	if spec.Network != nil {
		// A wire-submitted model: the spec is self-contained, no registry
		// entry needed. Validate (above) has already bounds-checked it and
		// pinned Sweep to the content-addressed id.
		factory, err = NetworkFactory(spec.Network, spec.Numeric, spec.Dist)
	} else {
		factory, err = reg.Lookup(spec.Sweep)
	}
	if err != nil {
		return ShardResult{}, err
	}
	if factory.Numeric != spec.Numeric || factory.Dist != spec.Dist {
		return ShardResult{}, fmt.Errorf("shard: sweep %q is numeric=%v dist=%v but spec says numeric=%v dist=%v",
			spec.Sweep, factory.Numeric, factory.Dist, spec.Numeric, spec.Dist)
	}
	if !spec.Numeric && factory.Outcomes != spec.Outcomes {
		return ShardResult{}, fmt.Errorf("shard: sweep %q has %d outcomes but spec says %d",
			spec.Sweep, factory.Outcomes, spec.Outcomes)
	}

	out := resultHeader(spec)
	out.Points = make([]PointTally, len(spec.Grid))
	if spec.Hi > spec.Lo {
		out.Ranges = []Range{{Lo: spec.Lo, Hi: spec.Hi}}
	}
	for i, param := range spec.Grid {
		cfg := mc.Config{Outcomes: spec.Outcomes, Seed: mc.PointSeed(spec.Seed, i)}
		pt := PointTally{Param: param}
		if spec.Dist {
			trial, err := factory.DistF(param)
			if err != nil {
				return ShardResult{}, fmt.Errorf("shard: sweep %q at %v: %w", spec.Sweep, param, err)
			}
			d := mc.RunDistRangeWith(cfg, factory.Hist, spec.Lo, spec.Hi, trial.NewEngine, trial.Observe)
			pt.Dist = &d
			out.Points[i] = pt
			continue
		}
		if spec.Numeric {
			trial, err := factory.NumericF(param)
			if err != nil {
				return ShardResult{}, fmt.Errorf("shard: sweep %q at %v: %w", spec.Sweep, param, err)
			}
			pt.Moments = mc.RunNumericRangeWith(cfg, spec.Lo, spec.Hi, trial.NewEngine, trial.Measure)
		} else {
			trial, err := factory.Outcome(param)
			if err != nil {
				return ShardResult{}, fmt.Errorf("shard: sweep %q at %v: %w", spec.Sweep, param, err)
			}
			res := mc.RunRangeWith(cfg, spec.Lo, spec.Hi, trial.NewEngine, trial.Classify)
			pt.Counts, pt.None = res.Counts, res.None
		}
		out.Points[i] = pt
	}
	return out, nil
}
