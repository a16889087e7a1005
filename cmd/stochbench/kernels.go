package main

import (
	"fmt"
	"time"

	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// This file holds every call into the compiled-kernel layer (chem); it is
// the only file that needs the kernel API of the commit under test beyond
// what the shard, scenario, lambda and mc entry points expose.

// kernel is the network of one sweep's first grid point, compiled the way
// that sweep's shards compile it, with the state its trials start from and
// the condition that ends a trial.
type kernel struct {
	compile  func() *chem.Compiled
	comp     *chem.Compiled
	st0      chem.State
	stop     func(chem.State, float64) bool
	maxSteps int64
}

// maxRecorded bounds the recorded trial of a kernel (the endpoint
// scenarios run to their step bound).
const maxRecorded = 200_000

// pilotEvents is shard.NetworkFactory's pilot length for wide networks.
const pilotEvents = 512

func lambdaModel(sweep string) (*lambda.Model, error) {
	if sweep == shard.SweepLambdaNatural || sweep == shard.SweepLambdaNaturalDist {
		return lambda.NaturalModel(lambda.NaturalParams{})
	}
	return lambda.SyntheticModel(), nil
}

func kernelOf(spec shard.SweepSpec) (kernel, error) {
	param := spec.Grid[0]
	var k kernel
	switch {
	case spec.Network != nil:
		ns := spec.Network
		net, err := chem.ParseNetworkString(ns.CRN)
		if err != nil {
			return k, err
		}
		net = applyParam(net, ns.Param, param)
		k.compile = func() *chem.Compiled {
			if net.NumReactions() >= chem.BlockThreshold {
				return chem.CompilePilot(net, pilotEvents)
			}
			return chem.Compile(net)
		}
		k.st0 = net.InitialState()
		k.maxSteps = ns.MaxSteps
		if k.maxSteps == 0 {
			k.maxSteps = shard.DefaultNetworkSteps
		}
		if o := ns.Observable; o.Kind == shard.ObsRace {
			a, b := net.MustSpecies(o.SpeciesA), net.MustSpecies(o.SpeciesB)
			k.stop = func(st chem.State, _ float64) bool { return st[a] >= o.CountA || st[b] >= o.CountB }
		}
	case spec.Sweep == shard.SweepFig3Dist:
		mod, err := synth.Figure3Spec(param).Build()
		if err != nil {
			return k, err
		}
		k.compile = func() *chem.Compiled { return chem.Compile(mod.Net) }
		k.st0 = mod.Net.InitialState()
		k.stop = mod.ThresholdPredicate(synth.Figure3Threshold)
		k.maxSteps = synth.Figure3MaxSteps
	default:
		m, err := lambdaModel(spec.Sweep)
		if err != nil {
			return k, err
		}
		st0 := m.Net.InitialState()
		st0.Set(m.MOI, int64(param))
		k.compile = func() *chem.Compiled { return chem.CompileAt(m.Net, st0) }
		k.st0 = st0
		k.stop = func(st chem.State, _ float64) bool {
			return st[m.Cro2] >= m.Thresholds.Cro2 || st[m.CI2] >= m.Thresholds.CI2
		}
		k.maxSteps = m.MaxSteps
		if k.maxSteps == 0 {
			k.maxSteps = 5_000_000
		}
	}
	k.comp = k.compile()
	return k, nil
}

// applyParam applies a grid value to a network as shard.NetworkFactory
// does: an initial count or a labelled rate.
func applyParam(net *chem.Network, p *shard.ParamSpec, param float64) *chem.Network {
	if p == nil {
		return net
	}
	mod := net.Clone()
	if p.Species != "" {
		mod.SetInitialByName(p.Species, int64(param))
		return mod
	}
	for i := range mod.Reactions() {
		if r := mod.Reaction(i); r.Label == p.Rate {
			r.Rate = param
		}
	}
	return mod
}

// record runs one trial on the exact optimized engine and returns the
// compiled channels it fired, in order.
func (k *kernel) record(seed uint64) []int32 {
	eng := sim.NewOptimizedDirectCompiled(k.comp, rng.NewStream(seed, 0))
	eng.Reset(k.st0, 0)
	var fired []int32
	sim.Run(eng, sim.RunOptions{
		MaxSteps: min(k.maxSteps, maxRecorded),
		StopWhen: k.stop,
		OnEvent:  func(r int, _ chem.State, _ float64) { fired = append(fired, k.comp.Channel[r]) },
	})
	return fired
}

// refreshRecords is Σ len(Deps(ch)) over the fired channels: the
// dependent propensities an event-driven engine refreshes.
func (k *kernel) refreshRecords(fired []int32) int64 {
	var n int64
	for _, ch := range fired {
		n += int64(len(k.comp.Deps(int(ch))))
	}
	return n
}

var (
	sinkF float64
	sinkI int
)

// chemLadder times the kernel's hot operations replayed over a recorded
// trial: full propensity evaluation and channel selection at up to 64
// states sampled along the trial, and the fire-and-refresh of every
// recorded event. It returns nanoseconds per call.
func (k *kernel) chemLadder(fired []int32, budget time.Duration, seed uint64) (propNS, fireNS, selectNS float64) {
	c := k.comp
	start := c.NewStateVec()
	copy(start, k.st0)
	st := c.NewStateVec()
	copy(st, start)
	prop := make([]float64, c.NumChannels())
	total := c.PropensitiesInto(st, prop)
	stride := max(1, len(fired)/64)
	var snaps []chem.State
	for i, ch := range fired {
		if i%stride == 0 && len(snaps) < 64 {
			snaps = append(snaps, st.Clone())
		}
		total = c.FireAndRefresh(int(ch), st, prop, total)
	}
	if len(snaps) == 0 {
		snaps = append(snaps, st.Clone())
	}

	propNS = perOp(budget, len(snaps), func() {
		for _, s := range snaps {
			sinkF += c.PropensitiesInto(s, prop)
		}
	})
	fireNS = perOp(budget, max(1, len(fired)), func() {
		copy(st, start)
		total := c.PropensitiesInto(st, prop)
		for _, ch := range fired {
			total = c.FireAndRefresh(int(ch), st, prop, total)
		}
		sinkF += total
	})

	const targetsPerState = 16
	gen := rng.NewStream(seed, 1)
	type selectCase struct {
		prop, sums []float64
		targets    []float64
	}
	cases := make([]selectCase, len(snaps))
	for i, s := range snaps {
		sc := selectCase{prop: make([]float64, c.NumChannels()), sums: make([]float64, c.NumSelectBlocks())}
		tot := c.PropensitiesInto(s, sc.prop)
		c.BlockSumsInto(sc.prop, sc.sums)
		for j := 0; j < targetsPerState; j++ {
			sc.targets = append(sc.targets, gen.Float64()*tot)
		}
		cases[i] = sc
	}
	blocks := c.NumSelectBlocks() > 0
	selectNS = perOp(budget, len(cases)*targetsPerState, func() {
		for _, sc := range cases {
			for _, t := range sc.targets {
				if blocks {
					sinkI += c.SelectBlock(sc.prop, sc.sums, t)
				} else {
					sinkI += c.SelectChannel(sc.prop, t)
				}
			}
		}
	})
	return propNS, fireNS, selectNS
}

// compileUS is the median time to compile the kernel's network.
func (k *kernel) compileUS(budget time.Duration) float64 {
	return perOp(budget, 1, func() { k.comp = k.compile() }) / 1e3
}

// kernelsOf builds the kernel of every sweep's first grid point.
func kernelsOf(specs []shard.SweepSpec) ([]kernel, error) {
	var ks []kernel
	for _, s := range specs {
		k, err := kernelOf(s)
		if err != nil {
			return nil, fmt.Errorf("kernel of %s: %w", s.Sweep, err)
		}
		ks = append(ks, k)
	}
	return ks, nil
}
