// Benchmarks regenerating every figure of the paper's evaluation, plus
// engine and design-choice ablations. Each figure bench reports the series
// the paper plots as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction alongside the timing. cmd/experiments produces
// the full-resolution tables and ASCII plots.
package stochsynth_test

import (
	"fmt"
	"testing"
	"time"

	"stochsynth"
	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/scenario"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// benchTrials scales the Monte Carlo sizes: the paper uses 100 000 trials;
// benches default to quick sizes so `go test -bench .` stays snappy.
const benchTrials = 1000

// BenchmarkFigure3GammaSweep regenerates Figure 3 (stochastic-module error
// vs. rate separation γ): each sub-benchmark runs the three-outcome race
// with Eᵢ=100 and reports the percentage of trials in error.
func BenchmarkFigure3GammaSweep(b *testing.B) {
	for _, gamma := range []float64{1, 10, 100, 1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("gamma=%g", gamma), func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				rate, err := synth.Figure3ErrorRate(gamma, benchTrials, 2007+uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * rate
			}
			b.ReportMetric(errPct, "err%")
			b.ReportMetric(0, "allocs/op") // drown the meaningless default
		})
	}
}

// BenchmarkFigure5Synthetic regenerates the "Synthetic System" series of
// Figure 5: P(cI₂ threshold reached) at each MOI for the Figure 4 model.
func BenchmarkFigure5Synthetic(b *testing.B) {
	model := lambda.SyntheticModel()
	for _, moi := range []int64{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("moi=%d", moi), func(b *testing.B) {
			var pct float64
			for i := 0; i < b.N; i++ {
				pts := lambda.SweepMOI(model, []int64{moi}, benchTrials, 5+uint64(i))
				pct = pts[0].PctLysogeny
			}
			b.ReportMetric(pct, "lysogeny%")
		})
	}
}

// BenchmarkFigure5SyntheticHybrid regenerates the Figure 5 synthetic series
// on the hybrid engine (sim.Hybrid: the exact race plus analytic relays).
// Besides the lysogeny percentage it reports trials/s and the speedup over
// a reused OptimizedDirect engine measured on the same MOI in the same
// process — the tentpole claim is >= 3x; the relay propagation of the
// log-module clock/decay pair typically lands 20-40x.
func BenchmarkFigure5SyntheticHybrid(b *testing.B) {
	base := lambda.SyntheticModel()
	hybrid := lambda.SyntheticModel().WithEngine(sim.EngineHybrid)
	for _, moi := range []int64{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("moi=%d", moi), func(b *testing.B) {
			// One-shot OptimizedDirect baseline for the speedup metric.
			const refTrials = 200
			start := time.Now()
			base.Characterize(moi, refTrials, 3)
			refPerTrial := time.Since(start).Seconds() / refTrials

			var pct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts := lambda.SweepMOI(hybrid, []int64{moi}, benchTrials, 5+uint64(i))
				pct = pts[0].PctLysogeny
			}
			b.StopTimer()
			perTrial := b.Elapsed().Seconds() / (float64(b.N) * benchTrials)
			b.ReportMetric(pct, "lysogeny%")
			b.ReportMetric(1/perTrial, "trials/s")
			b.ReportMetric(refPerTrial/perTrial, "speedup-vs-optimized")
		})
	}
}

// BenchmarkFigure5Natural regenerates the "Natural System" series of
// Figure 5 using the calibrated mechanistic surrogate.
func BenchmarkFigure5Natural(b *testing.B) {
	model, err := lambda.NaturalModel(lambda.NaturalParams{})
	if err != nil {
		b.Fatal(err)
	}
	for _, moi := range []int64{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("moi=%d", moi), func(b *testing.B) {
			var pct float64
			for i := 0; i < b.N; i++ {
				pts := lambda.SweepMOI(model, []int64{moi}, benchTrials, 7+uint64(i))
				pct = pts[0].PctLysogeny
			}
			b.ReportMetric(pct, "lysogeny%")
		})
	}
}

// BenchmarkExample1 regenerates the paper's Example 1: the 30/40/30
// programmed distribution, reporting the measured p₂ (want 0.40).
func BenchmarkExample1(b *testing.B) {
	mod, err := synth.StochasticSpec{
		Outcomes: []synth.Outcome{{Weight: 30}, {Weight: 40}, {Weight: 30}},
		Gamma:    1e3,
	}.Build()
	if err != nil {
		b.Fatal(err)
	}
	var p2 float64
	for i := 0; i < b.N; i++ {
		res := mc.Run(mc.Config{Trials: benchTrials, Outcomes: 3, Seed: 11 + uint64(i)},
			func(gen *rng.PCG) int {
				r := synth.RunRace(mod, 10, 2_000_000, gen)
				return r.Winner
			})
		p2 = res.Fraction(1)
	}
	b.ReportMetric(p2, "p2")
}

// BenchmarkExample2 regenerates the paper's Example 2 at (X₁,X₂) = (5,4):
// programmed p₁ = 0.3+0.02·5−0.03·4 = 0.28.
func BenchmarkExample2(b *testing.B) {
	am, err := synth.AffineSpec{
		Stochastic: synth.StochasticSpec{
			Outcomes: []synth.Outcome{{Weight: 30}, {Weight: 40}, {Weight: 30}},
			Gamma:    1e3,
		},
		Inputs: []string{"x1", "x2"},
		Coeff:  [][]float64{{0.02, -0.03}, {0, 0.03}, {-0.02, 0}},
	}.Build()
	if err != nil {
		b.Fatal(err)
	}
	st0, err := am.InitialState([]int64{5, 4})
	if err != nil {
		b.Fatal(err)
	}
	var p1 float64
	for i := 0; i < b.N; i++ {
		res := mc.Run(mc.Config{Trials: benchTrials, Outcomes: 3, Seed: 13 + uint64(i)},
			func(gen *rng.PCG) int {
				eng := sim.NewDirect(am.Net, gen)
				eng.Reset(st0, 0)
				r := sim.Run(eng, sim.RunOptions{
					StopWhen: am.ThresholdPredicate(10), MaxSteps: 2_000_000,
				})
				if r.Reason != sim.StopPredicate {
					return mc.None
				}
				return am.Winner(eng.State(), 10)
			})
		p1 = res.Fraction(0)
	}
	b.ReportMetric(p1, "p1")
}

// lambdaEventBench measures raw engine throughput (ns per reaction event)
// on the Figure 4 network at MOI 5. The paper cites Gibson–Bruck as its
// simulation substrate; here Direct and OptimizedDirect fill that
// exact-SSA role.
func lambdaEventBench(b *testing.B, mk func(*chem.Network, *rng.PCG) sim.Engine) {
	model := lambda.SyntheticModel()
	st0 := model.Net.InitialState()
	st0.Set(model.MOI, 5)
	gen := rng.New(1)
	eng := mk(model.Net, gen)
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset(st0, 0)
		res := sim.Run(eng, sim.RunOptions{MaxSteps: 10000})
		events += res.Steps
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

func BenchmarkEngineDirectLambda(b *testing.B) {
	lambdaEventBench(b, func(n *chem.Network, g *rng.PCG) sim.Engine { return sim.NewDirect(n, g) })
}

func BenchmarkEngineOptimizedDirectLambda(b *testing.B) {
	lambdaEventBench(b, func(n *chem.Network, g *rng.PCG) sim.Engine { return sim.NewOptimizedDirect(n, g) })
}

func BenchmarkEngineFirstReactionLambda(b *testing.B) {
	lambdaEventBench(b, func(n *chem.Network, g *rng.PCG) sim.Engine { return sim.NewFirstReaction(n, g) })
}

// lambdaTrialsBench measures Monte Carlo throughput in trials/sec for one
// lambda model: the quantity the paper's "100,000 trials" characterisation
// is bottlenecked on. It runs Model.Characterize, the engine-factory path
// (mc.RunWith: one engine per worker, Reset per trial).
func lambdaTrialsBench(b *testing.B, model *lambda.Model) {
	const moi = 5
	const trialsPerOp = 200
	var lysogeny int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := model.Characterize(moi, trialsPerOp, 23+uint64(i))
		lysogeny += res.Counts[lambda.Lysogeny]
	}
	b.StopTimer()
	trials := float64(b.N) * trialsPerOp
	b.ReportMetric(trials/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(100*float64(lysogeny)/trials, "lysogeny%")
}

// Narrow network: the paper's 19-reaction Figure 4 synthetic model on one
// OptimizedDirect engine per worker.
func BenchmarkTrialsSyntheticOptimizedReuse(b *testing.B) {
	lambdaTrialsBench(b, lambda.SyntheticModel())
}

// Hybrid engine on the same model and path: the partitioned engine batches
// the clock/decay relay analytically between exact race events.
func BenchmarkTrialsSyntheticHybridReuse(b *testing.B) {
	lambdaTrialsBench(b, lambda.SyntheticModel().WithEngine(sim.EngineHybrid))
}

// Hybrid engine event throughput on the raw Step loop (comparable with the
// other BenchmarkEngine*Lambda benches; "events" here counts slow steps
// plus batched fast events).
func BenchmarkEngineHybridLambda(b *testing.B) {
	model := lambda.SyntheticModel()
	st0 := model.Net.InitialState()
	st0.Set(model.MOI, 5)
	gen := rng.New(1)
	eng := sim.NewHybrid(model.Net, []chem.Species{model.Cro2, model.CI2}, gen)
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset(st0, 0)
		res := sim.Run(eng, sim.RunOptions{MaxSteps: 10000, MaxTime: 1e8})
		events += res.Steps + eng.FastEvents()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// Wide network: the natural-model surrogate (the stand-in for the Arkin
// 117-reaction model the paper characterises).
func BenchmarkTrialsNaturalOptimizedReuse(b *testing.B) {
	model, err := lambda.NaturalModel(lambda.NaturalParams{})
	if err != nil {
		b.Fatal(err)
	}
	lambdaTrialsBench(b, model)
}

// wideNetwork builds an N-channel cyclic conversion network — the "many
// species and many channels" regime where OptimizedDirect's dependency
// graph and two-level block selection (chem.BlockThreshold) pay off.
func wideNetwork(n int) *chem.Network {
	net := chem.NewNetwork()
	b := chem.WrapBuilder(net)
	for i := 0; i < n; i++ {
		from := fmt.Sprintf("s%d", i)
		to := fmt.Sprintf("s%d", (i+1)%n)
		b.Rxn("").In(from, 1).Out(to, 1).Rate(1)
		net.SetInitialByName(from, 50)
	}
	return net
}

func wideEventBench(b *testing.B, mk func(*chem.Network, *rng.PCG) sim.Engine) {
	net := wideNetwork(256)
	eng := mk(net, rng.New(2))
	st0 := net.InitialState()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset(st0, 0)
		res := sim.Run(eng, sim.RunOptions{MaxSteps: 20000})
		events += res.Steps
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

func BenchmarkEngineDirectWide256(b *testing.B) {
	wideEventBench(b, func(n *chem.Network, g *rng.PCG) sim.Engine { return sim.NewDirect(n, g) })
}

func BenchmarkEngineOptimizedDirectWide256(b *testing.B) {
	wideEventBench(b, func(n *chem.Network, g *rng.PCG) sim.Engine { return sim.NewOptimizedDirect(n, g) })
}

// BenchmarkWideModule measures the paper's stochastic module (§2.1), the
// wide kernel the paper itself motivates: n outcomes of weight 10 at
// γ = 100 compile to 108 channels at n = 8, 234 at 12 and 408 at 16, all
// past chem.BlockThreshold. The module runs as a wire network through
// shard.NetworkFactory, so it compiles exactly as a wire shard does, on
// every engine kind. One engine per sub-benchmark, one trial per
// iteration; a trial runs to quiescence, about 1 100 events.
func BenchmarkWideModule(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		outcomes := make([]synth.Outcome, n)
		for i := range outcomes {
			outcomes[i] = synth.Outcome{Weight: 10}
		}
		mod, err := synth.StochasticSpec{Outcomes: outcomes, Gamma: 100}.Build()
		if err != nil {
			b.Fatal(err)
		}
		crn := string(chem.AppendCRN(nil, mod.Net))
		for _, kind := range sim.EngineKinds() {
			b.Run(fmt.Sprintf("n=%d/%s", n, kind), func(b *testing.B) {
				f, err := shard.NetworkFactory(&shard.NetworkSpec{
					CRN:        crn,
					Engine:     string(kind),
					Observable: shard.ObservableSpec{Kind: shard.ObsEndpoint, SpeciesA: "o1", CountA: 1},
					Hist:       &mc.HistConfig{Lo: 0, Width: 50, Bins: 21},
				}, false, true)
				if err != nil {
					b.Fatal(err)
				}
				trial, err := f.DistF(0)
				if err != nil {
					b.Fatal(err)
				}
				gen := rng.New(3)
				eng := trial.NewEngine(gen)
				var events int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gen.Reseed(2007, uint64(i))
					events += trial.Observe(eng).Steps
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}

// BenchmarkAblationNoPurifying quantifies the purifying category's
// contribution. The winner identity turns out to be decided by the
// reinforcing/stabilizing race (error rates barely move without
// purifying); what purifying buys is outcome *purity* — how many stray
// output molecules the losing pathway emits before its catalyst dies. The
// bench reports the mean stray-output count at declaration time, with and
// without the purifying channels, at γ=100 (measured: ≈0.0002 vs ≈0.18).
func BenchmarkAblationNoPurifying(b *testing.B) {
	build := func(purify bool) *synth.StochasticModule {
		mod, err := synth.Figure3Spec(100).Build()
		if err != nil {
			b.Fatal(err)
		}
		if purify {
			return mod
		}
		// Rebuild the network without the purifying channels. Species are
		// re-registered in index order, so term indices stay valid; the
		// initializing reactions keep their indices because they are
		// emitted before the purifying category.
		net := chem.NewNetwork()
		for i := 0; i < mod.Net.NumSpecies(); i++ {
			sp := chem.Species(i)
			net.SetInitialByName(mod.Net.Name(sp), mod.Net.Initial(sp))
		}
		for i := 0; i < mod.Net.NumReactions(); i++ {
			r := mod.Net.Reaction(i)
			if r.Label == synth.LabelPurifying {
				continue
			}
			net.AddReaction(r.Label, r.Reactants, r.Products, r.Rate)
		}
		stripped := *mod
		stripped.Net = net
		return &stripped
	}
	for _, purify := range []bool{true, false} {
		b.Run(fmt.Sprintf("purifying=%v", purify), func(b *testing.B) {
			mod := build(purify)
			var stray float64
			for i := 0; i < b.N; i++ {
				s := mc.RunNumeric(mc.Config{Trials: benchTrials, Seed: 17 + uint64(i)},
					func(gen *rng.PCG) float64 {
						eng := sim.NewDirect(mod.Net, gen)
						res := sim.Run(eng, sim.RunOptions{
							StopWhen: mod.ThresholdPredicate(10), MaxSteps: 2_000_000,
						})
						if res.Reason != sim.StopPredicate {
							return 0
						}
						st := eng.State()
						w := mod.Winner(st, 10)
						var n int64
						for j := range mod.Outputs {
							if j != w {
								n += mod.OutputTotal(st, j)
							}
						}
						return float64(n)
					})
				stray = s.Mean
			}
			b.ReportMetric(stray, "stray-outputs")
		})
	}
}

// BenchmarkAblationBandSeparation quantifies deterministic-module accuracy
// vs. band separation: the exp2 module computing 2⁴ at increasing Sep.
func BenchmarkAblationBandSeparation(b *testing.B) {
	for _, sep := range []float64{10, 100, 1000} {
		b.Run(fmt.Sprintf("sep=%g", sep), func(b *testing.B) {
			net, err := stochsynth.Exp2Spec{
				X: "x", Y: "y",
				Bands: stochsynth.RateBands{Slowest: 1e-3, Sep: sep},
			}.Build()
			if err != nil {
				b.Fatal(err)
			}
			net.SetInitialByName("x", 4)
			y := net.MustSpecies("y")
			var exactPct float64
			for i := 0; i < b.N; i++ {
				exact := 0
				const trials = 200
				for s := 0; s < trials; s++ {
					eng := sim.NewDirect(net, rng.NewStream(uint64(19+i), uint64(s)))
					sim.Run(eng, sim.RunOptions{MaxSteps: 200000})
					if eng.State()[y] == 16 {
						exact++
					}
				}
				exactPct = 100 * float64(exact) / trials
			}
			b.ReportMetric(exactPct, "exact%")
		})
	}
}

// BenchmarkSynthesis measures the compiler itself: building the Figure 4
// network from specs.
func BenchmarkSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if lambda.SyntheticModel() == nil {
			b.Fatal("nil model")
		}
	}
}

// distMergeParts builds the shard-merge benchmark fixtures: 64 shard
// distribution summaries of 256 trials each, produced by the same
// collector the sharded sweeps use.
func distMergeParts() []mc.DistSummary {
	const shards, per = 64, 256
	cfg := mc.Config{Seed: 23, Outcomes: 2, Workers: 1}
	hcfg := mc.HistConfig{Lo: -16, Width: 2, Bins: 64}
	parts := make([]mc.DistSummary, shards)
	for s := range parts {
		parts[s] = mc.RunDistRangeWith(cfg, hcfg, s*per, (s+1)*per,
			func(gen *rng.PCG) *rng.PCG { return gen },
			func(gen *rng.PCG) mc.Obs {
				v := gen.Normal(0, 8)
				o := gen.Intn(2)
				return mc.Obs{Value: v, IValue: int64(v), Outcome: o, Steps: int64(gen.Intn(4096))}
			})
	}
	return parts
}

// BenchmarkMergeDistSummaries measures the coordinator-side cost of
// folding 64 shard distribution summaries (256 trials each) into one run
// summary — the merge work behind every -dist sweep, journal replay and
// network gather. The component benches below split the cost out.
func BenchmarkMergeDistSummaries(b *testing.B) {
	parts := distMergeParts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var merged mc.DistSummary
		for _, p := range parts {
			var err error
			if merged, err = mc.MergeDist(merged, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMergeQuantileSketches isolates the aligned-tree sketch merge —
// the only dist component whose merge does real work (deterministic
// rank-block compaction at every tree level).
func BenchmarkMergeQuantileSketches(b *testing.B) {
	parts := distMergeParts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var merged mc.Sketch
		for _, p := range parts {
			var err error
			if merged, err = mc.MergeSketches(merged, p.Sketch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMergeHistSummaries isolates the fixed-bin histogram merge —
// pure integer column sums.
func BenchmarkMergeHistSummaries(b *testing.B) {
	parts := distMergeParts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var merged mc.HistSummary
		for _, p := range parts {
			var err error
			if merged, err = mc.MergeHist(merged, p.Hist); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// scenarioTrialBench measures Monte Carlo trial throughput of one pinned
// scenario (internal/scenario) on one engine kind, through exactly the
// factory path sharded sweeps run (shard.NetworkFactory over the
// scenario's wire NetworkSpec): one reused engine, Reset+race per trial.
func scenarioTrialBench(b *testing.B, s *scenario.Scenario, kind sim.EngineKind) {
	ns := s.NetworkSpec()
	ns.Engine = string(kind)
	f, err := shard.NetworkFactory(ns, false, true)
	if err != nil {
		b.Fatal(err)
	}
	trial, err := f.DistF(s.Grid[0])
	if err != nil {
		b.Fatal(err)
	}
	gen := rng.New(9)
	eng := trial.NewEngine(gen)
	const trialsPerOp = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < trialsPerOp; j++ {
			gen.Reseed(s.Seed, uint64(j))
			trial.Observe(eng)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*trialsPerOp/b.Elapsed().Seconds(), "trials/s")
}

// scenarioEngineBenches registers the per-engine sub-benchmarks of one
// scenario: both direct-method engines always, the hybrid only where the
// scenario's partition characterisation (Scenario.Hybrid) finds a
// fast-eligible channel.
func scenarioEngineBenches(b *testing.B, name string) {
	s, ok := scenario.ByName(name)
	if !ok {
		b.Fatalf("scenario %q not in library", name)
	}
	kinds := []sim.EngineKind{sim.EngineDirect, sim.EngineOptimizedDirect}
	if s.Hybrid {
		kinds = append(kinds, sim.EngineHybrid)
	}
	for _, kind := range kinds {
		b.Run(string(kind), func(b *testing.B) { scenarioTrialBench(b, s, kind) })
	}
}

func BenchmarkScenarioAntithetic(b *testing.B)    { scenarioEngineBenches(b, "antithetic") }
func BenchmarkScenarioPlesa(b *testing.B)         { scenarioEngineBenches(b, "plesa") }
func BenchmarkScenarioRepressilator(b *testing.B) { scenarioEngineBenches(b, "repressilator") }
func BenchmarkScenarioSchlogl(b *testing.B)       { scenarioEngineBenches(b, "schlogl") }
func BenchmarkScenarioToggle(b *testing.B)        { scenarioEngineBenches(b, "toggle") }
