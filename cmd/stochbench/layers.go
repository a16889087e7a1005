package main

import (
	"runtime"
	"time"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
	"stochsynth/internal/synth"
)

// perOp runs fn, which performs ops operations, in batches until budget
// has elapsed (at least 5 batches, at most 10 000) and returns the median
// nanoseconds per operation.
func perOp(budget time.Duration, ops int, fn func()) float64 {
	var samples []float64
	start := time.Now()
	for len(samples) < 5 || (time.Since(start) < budget && len(samples) < 10_000) {
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(samples)
}

// rngLadder times single draws: a uniform, Poisson(50) and
// Binomial(1000, 0.3), in nanoseconds per draw.
func rngLadder(budget time.Duration, seed uint64) (uniform, poisson, binomial float64) {
	gen := rng.NewStream(seed, 2)
	const n = 1024
	uniform = perOp(budget, n, func() {
		for i := 0; i < n; i++ {
			sinkF += gen.Float64()
		}
	})
	poisson = perOp(budget, n, func() {
		for i := 0; i < n; i++ {
			sinkI += int(gen.Poisson(50))
		}
	})
	binomial = perOp(budget, n, func() {
		for i := 0; i < n; i++ {
			sinkI += int(gen.Binomial(1000, 0.3))
		}
	})
	return uniform, poisson, binomial
}

// modelBuildMS times building the workload's lambda model (the natural
// model for workloads without one), in milliseconds.
func modelBuildMS(budget time.Duration, specs []shard.SweepSpec) float64 {
	sweep := shard.SweepLambdaNatural
	if s := specs[0].Sweep; s == shard.SweepLambdaSyntheticHybridDist {
		sweep = s
	}
	return perOp(budget, 1, func() {
		if m, err := lambdaModel(sweep); err == nil {
			sinkI += m.Net.NumReactions()
		}
	}) / 1e6
}

// moduleBuildUS times synthesising the Figure 3 stochastic module at each
// γ of the fig3 grid, in microseconds per module.
func moduleBuildUS(budget time.Duration) float64 {
	return perOp(budget, len(gammas), func() {
		for _, g := range gammas {
			if mod, err := synth.Figure3Spec(g).Build(); err == nil {
				sinkI += mod.Net.NumReactions()
			}
		}
	}) / 1e3
}

// mergeDistUS times mc.MergeDist folding each point's per-shard
// distribution summaries in shard order, in microseconds per merge.
func mergeDistUS(budget time.Duration, perSweep [][]shard.ShardResult) float64 {
	var dists [][]mc.DistSummary // per (sweep, point), in shard order
	for _, results := range perSweep {
		for i := range results[0].Points {
			var ds []mc.DistSummary
			for _, r := range results {
				if d, err := r.DistAt(i); err == nil {
					ds = append(ds, d)
				}
			}
			dists = append(dists, ds)
		}
	}
	var samples []float64
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < budget; pass++ {
		for _, ds := range dists {
			if len(ds) == 0 {
				continue
			}
			acc := ds[0]
			for _, d := range ds[1:] {
				t0 := time.Now()
				acc, _ = mc.MergeDist(acc, d)
				samples = append(samples, us(time.Since(t0)))
			}
		}
		if len(samples) == 0 {
			break // single-shard sweeps: nothing to merge
		}
	}
	return median(samples)
}

// scaling runs one shard with one mc worker and with two, twice each,
// and returns the 1-worker ÷ 2-worker time ratio and the bytes allocated
// per trial by the 2-worker runs.
func scaling(reg *shard.Registry, spec shard.ShardSpec) (ratio, allocPerTrial float64, err error) {
	f, err := factoryFor(reg, spec)
	if err != nil {
		return 0, 0, err
	}
	bodies := make([]body, len(spec.Grid))
	for i, p := range spec.Grid {
		if bodies[i], err = buildBody(f, spec, p); err != nil {
			return 0, 0, err
		}
	}
	runAll := func(workers int) time.Duration {
		t0 := time.Now()
		for i, b := range bodies {
			runBody(b, f, spec, i, workers)
		}
		return time.Since(t0)
	}
	var t1, t2 time.Duration
	var alloc uint64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < 2; rep++ {
		t1 += runAll(1)
		runtime.ReadMemStats(&m0)
		t2 += runAll(2)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
	}
	trials := 2 * (spec.Hi - spec.Lo) * len(spec.Grid)
	return t1.Seconds() / t2.Seconds(), float64(alloc) / float64(trials), nil
}
