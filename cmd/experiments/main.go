// Command experiments regenerates every figure and worked example of the
// paper's evaluation, printing the same series the paper plots plus ASCII
// renderings of the figures.
//
// Usage:
//
//	experiments -exp fig3|fig4|fig5|ex1|ex2|modules|all [flags]
//
// Flags:
//
//	-trials N   Monte Carlo trials per point (default 20000; paper: 100000)
//	-seed S     base RNG seed (default 2007)
//	-engine E   simulation engine for the Monte Carlo sweeps (fig3, fig5,
//	            ex1, ex2, pipeline), any of sim.EngineKinds():
//	            direct|optimized|first-reaction|hybrid; default optimized.
//	            See docs/engines.md.
//
// A flag the chosen experiment does not read (see experiments), or one out
// of range, exits 2 naming it, before any output.
//
// The tool prints measured values next to the paper's reported/derived
// values so deviations are visible at a glance. Each experiment ends with a
// timing line giving its wall time and the trials it ran per point, which
// can be fewer than -trials: modules runs at most 500 per input (its power
// rows about a quarter of that), pipeline at most 5000, and fig4 none.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"stochsynth/internal/chem"
	"stochsynth/internal/cli"
	"stochsynth/internal/lambda"
	"stochsynth/internal/mc"
	"stochsynth/internal/plot"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: fig3|fig4|fig5|ex1|ex2|modules|pipeline|all")
		trials = flag.Int("trials", 20000, "Monte Carlo trials per point (paper: 100000)")
		seed   = flag.Uint64("seed", 2007, "base RNG seed")
		engine = flag.String("engine", "", "simulation engine of fig3, fig5, ex1, ex2 and pipeline (default optimized)")
	)
	flag.Parse()
	// -exp all reads each flag some experiment reads.
	var chosen []experiment
	mode := cli.Mode{Name: "-exp " + *exp}
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			chosen = append(chosen, e)
			mode.Reads = append(mode.Reads, e.reads...)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q\n", *exp)
		os.Exit(2)
	}
	// Every Monte Carlo runner needs at least one trial.
	outOfRange := func(name string) string {
		if name == "trials" && *trials <= 0 {
			return fmt.Sprintf("%d: want a positive trial count", *trials)
		}
		return ""
	}
	if mode.Refuse(flag.CommandLine, "experiments", outOfRange) {
		os.Exit(2)
	}
	// An unknown -engine value lists sim.EngineKinds().
	kind, err := sim.ParseEngineKind(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	engineKind = kind

	for _, e := range chosen {
		fmt.Printf("==== %s ====\n", e.title)
		start := time.Now()
		e.run(*trials, *seed)
		fmt.Printf("(%s, %s)\n\n", time.Since(start).Round(time.Millisecond), e.ran(*trials))
	}
}

// experiment is one -exp value, and so one mode: its title, its body,
// ran, the trials it runs per point at -trials n, which its timing line
// reports, and reads, the flags it reads.
type experiment struct {
	name, title string
	run         func(trials int, seed uint64)
	ran         func(n int) string
	reads       []string
}

// everyFlag names each flag experiments defines.
var everyFlag = []string{"exp", "trials", "seed", "engine"}

// experiments lists every -exp value in the order -exp all runs them.
// modules runs Direct by design, and fig4 runs no trials.
var experiments = []experiment{
	{"fig3", "Figure 3: stochastic-module error vs gamma", figure3, perPoint, everyFlag},
	{"fig4", "Figure 4: synthetic lambda model", figure4, func(int) string { return perPoint(0) }, []string{"exp"}},
	{"fig5", "Figure 5: lambda probabilistic response", figure5, perPoint, everyFlag},
	{"ex1", "Example 1: programmed 0.3/0.4/0.3 distribution", example1, perPoint, everyFlag},
	{"ex2", "Example 2: affine input dependence", example2, perPoint, everyFlag},
	{"modules", "Section 2.2.1: deterministic modules", modules, modulesRan, []string{"exp", "trials", "seed"}},
	{"pipeline", "Section 3 methodology: characterise -> fit -> synthesise -> validate", pipeline,
		func(n int) string { return perPoint(pipelineTrials(n)) }, everyFlag},
}

// perPoint formats a trial count for the timing line.
func perPoint(n int) string { return fmt.Sprintf("%d trials/point", n) }

// engineKind is the -engine flag: the engine the Monte Carlo sweeps of
// fig3, fig5, ex1, ex2 and pipeline run on (empty = OptimizedDirect over
// chem.Compile, the kernel sim.NewOptimizedDirect builds).
var engineKind sim.EngineKind

// figure3 reproduces the error-vs-γ sweep (Monte Carlo per γ, log-log).
// Point i draws the PointSeed(seed, i) streams with the trial body of the
// registered synth/fig3-error sweep, so on the default engine it tallies
// what cmd/sweepd prints for that sweep at any shard count.
func figure3(trials int, seed uint64) {
	gammas := []float64{1, 10, 100, 1e3, 1e4, 1e5}
	tab := plot.Table{Headers: []string{"gamma", "trials", "errors", "error %", "95% Wilson"}}
	var xs, ys []float64
	for i, g := range gammas {
		res, err := synth.Figure3Tally(g, trials, mc.PointSeed(seed, i), engineKind)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rate := res.Fraction(1)
		n := res.Counts[1]
		lo, hi := res.Proportion(1).Wilson(mc.Z95)
		tab.Add(
			fmt.Sprintf("%g", g),
			fmt.Sprintf("%d", trials),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", 100*rate),
			fmt.Sprintf("[%.4f, %.4f]", 100*lo, 100*hi),
		)
		if rate > 0 {
			xs = append(xs, g)
			ys = append(ys, 100*rate)
		}
	}
	fmt.Print(tab.Render())
	p := plot.Plot{
		Title:  "Error Analysis for the Stochastic Module (cf. paper Figure 3)",
		XLabel: "Reaction Rate Separation (gamma)",
		YLabel: "Percent of Trajectories in Error",
		XLog:   true, YLog: true,
	}
	p.Add(plot.Series{Name: "measured error", Marker: 'o', X: xs, Y: ys})
	fmt.Print(p.Render())
}

// figure4 prints the synthesised model next to its validation status.
func figure4(int, uint64) {
	m := lambda.SyntheticModel()
	fmt.Printf("%d reactions in %d species (paper: 19 in 17)\n\n", m.Net.NumReactions(), m.Net.NumSpecies())
	fmt.Print(chem.Format(m.Net))
	if issues := chem.Validate(m.Net); len(issues) > 0 {
		fmt.Println("\nvalidation findings:")
		for _, is := range issues {
			fmt.Println(" ", is)
		}
	}
}

// figure5 sweeps MOI for the natural surrogate and the synthetic model,
// fits both, and overlays the three series like the paper's Figure 5.
func figure5(trials int, seed uint64) {
	mois := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ref := lambda.Reference()

	natural, err := lambda.NaturalModel(lambda.NaturalParams{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	natural.Engine = engineKind
	natPts := lambda.SweepMOI(natural, mois, trials, seed)
	synPts := lambda.SweepMOI(lambda.SyntheticModel().WithEngine(engineKind), mois, trials, seed+999)

	tab := plot.Table{Headers: []string{"MOI", "natural %", "synthetic %", "programmed %", "Eq.14 %"}}
	var xs, natY, synY, refY []float64
	params := lambda.SynthesisParams{A: 15, B: 6, CInv: 6}
	for i, moi := range mois {
		tab.Add(
			fmt.Sprintf("%d", moi),
			fmt.Sprintf("%.2f", natPts[i].PctLysogeny),
			fmt.Sprintf("%.2f", synPts[i].PctLysogeny),
			fmt.Sprintf("%.0f", lambda.Programmed(params, moi)),
			fmt.Sprintf("%.2f", ref.Eval(float64(moi))),
		)
		xs = append(xs, float64(moi))
		natY = append(natY, natPts[i].PctLysogeny)
		synY = append(synY, synPts[i].PctLysogeny)
		refY = append(refY, ref.Eval(float64(moi)))
	}
	fmt.Print(tab.Render())

	if natFit, err := lambda.FitResponse(natPts); err == nil {
		fmt.Printf("\nnatural fit:   %s\n", natFit)
	}
	if synFit, err := lambda.FitResponse(synPts); err == nil {
		fmt.Printf("synthetic fit: %s\n", synFit)
	}
	fmt.Printf("paper Eq. 14:  15 + 6·log2(x) + 0.1667·x\n\n")

	p := plot.Plot{
		Title:  "Probabilistic Response (cf. paper Figure 5)",
		XLabel: "MOI",
		YLabel: "cI2 Threshold Reached (%)",
	}
	p.Add(plot.Series{Name: "natural surrogate", Marker: 'N', X: xs, Y: natY})
	p.Add(plot.Series{Name: "synthetic system", Marker: 'S', X: xs, Y: synY})
	p.Add(plot.Series{Name: "Eq.14 fit", Marker: '.', X: xs, Y: refY})
	fmt.Print(p.Render())
}

// example1 reproduces the 0.3/0.4/0.3 programmed distribution on the
// -engine kind.
func example1(trials int, seed uint64) {
	mod, err := synth.StochasticSpec{
		Outcomes: []synth.Outcome{{Weight: 30}, {Weight: 40}, {Weight: 30}},
		Gamma:    1e3,
	}.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	comp, protected := chem.Compile(mod.Net), mod.ProtectedSpecies()
	res := mc.RunWith(mc.Config{Trials: trials, Outcomes: 3, Seed: seed},
		func(gen *rng.PCG) sim.Engine { return sim.MustEngineOfKindCompiled(engineKind, comp, protected, gen) },
		func(eng sim.Engine) int {
			return synth.RunRaceWith(mod, eng, 10, 2_000_000).Winner
		})
	tab := plot.Table{Headers: []string{"outcome", "programmed", "measured", "95% Wilson"}}
	for i, want := range mod.Probabilities() {
		p := res.Proportion(i)
		lo, hi := p.Wilson(mc.Z95)
		tab.Add(
			fmt.Sprintf("d%d", i+1),
			fmt.Sprintf("%.3f", want),
			fmt.Sprintf("%.4f", p.Estimate()),
			fmt.Sprintf("[%.4f, %.4f]", lo, hi),
		)
	}
	fmt.Print(tab.Render())
	if res.None > 0 {
		fmt.Printf("unresolved trials: %d\n", res.None)
	}
}

// example2 reproduces the affine preprocessing across a grid of inputs on
// the -engine kind.
func example2(trials int, seed uint64) {
	am, err := synth.AffineSpec{
		Stochastic: synth.StochasticSpec{
			Outcomes: []synth.Outcome{{Weight: 30}, {Weight: 40}, {Weight: 30}},
			Gamma:    1e3,
		},
		Inputs: []string{"x1", "x2"},
		Coeff:  [][]float64{{0.02, -0.03}, {0, 0.03}, {-0.02, 0}},
	}.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("preprocessing reactions:")
	for i := range am.Net.Reactions() {
		r := am.Net.Reaction(i)
		if r.Label == synth.LabelPreprocess {
			fmt.Println(" ", chem.FormatReaction(am.Net, r))
		}
	}
	fmt.Println()
	comp, protected := chem.Compile(am.Net), am.ProtectedSpecies()
	tab := plot.Table{Headers: []string{"X1", "X2", "p1 prog/meas", "p2 prog/meas", "p3 prog/meas"}}
	for _, inputs := range [][]int64{{0, 0}, {5, 0}, {0, 5}, {5, 5}, {10, 10}} {
		want, err := am.ProbabilitiesAt(inputs)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		st0, err := am.InitialState(inputs)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		res := mc.RunWith(mc.Config{Trials: trials, Outcomes: 3, Seed: seed + uint64(inputs[0]*31+inputs[1])},
			func(gen *rng.PCG) sim.Engine { return sim.MustEngineOfKindCompiled(engineKind, comp, protected, gen) },
			func(eng sim.Engine) int {
				eng.Reset(st0, 0)
				r := sim.Run(eng, sim.RunOptions{
					StopWhen: am.ThresholdPredicate(10), MaxSteps: 2_000_000,
				})
				if r.Reason != sim.StopPredicate {
					return mc.None
				}
				return am.Winner(eng.State(), 10)
			})
		cell := func(i int) string {
			return fmt.Sprintf("%.3f/%.4f", want[i], res.Fraction(i))
		}
		tab.Add(fmt.Sprintf("%d", inputs[0]), fmt.Sprintf("%d", inputs[1]), cell(0), cell(1), cell(2))
	}
	fmt.Print(tab.Render())
}

// moduleTrials caps -trials for the module checks, which need far fewer
// trials per input; powerTrials is the power rows' share of that.
func moduleTrials(n int) int { return min(n, 500) }
func powerTrials(n int) int  { return n/4 + 1 }

// modulesRan reports the trials modules runs per input at -trials n,
// naming the power rows' count where it differs.
func modulesRan(n int) string {
	n = moduleTrials(n)
	if p := powerTrials(n); p != n {
		return fmt.Sprintf("%s; power rows %s", perPoint(n), perPoint(p))
	}
	return perPoint(n)
}

// modules verifies each deterministic module's function over a small sweep
// on Direct, by design (TestModulesGolden pins the table), so it does not
// read -engine.
func modules(trials int, seed uint64) {
	trials = moduleTrials(trials)
	tab := plot.Table{Headers: []string{"module", "input", "ideal", "mode", "mean", "P(exact)"}}
	// add runs n trials of a module and tabulates its final y against ideal.
	add := func(module, input string, ideal int64, net *chem.Network, done func(chem.State, float64) bool, n int) {
		h, mean := moduleHist(net, net.MustSpecies("y"), done, n, seed)
		exact := 0.0 // no trial ended at ideal when it lies outside [Min, Max]
		if h.Min <= ideal && ideal <= h.Max {
			exact = h.Fraction(int(ideal - h.Min))
		}
		tab.Add(module, input, fmt.Sprint(ideal), fmt.Sprint(h.Mode()),
			fmt.Sprintf("%.2f", mean), fmt.Sprintf("%.2f", exact))
	}

	// Linear: 2x → 3y.
	{
		net, _ := synth.LinearSpec{Alpha: 2, Beta: 3, X: "x", Y: "y"}.Build()
		for _, x0 := range []int64{10, 100} {
			net.SetInitialByName("x", x0)
			add("linear 2x->3y", fmt.Sprint(x0), 3*(x0/2), net, nil, trials)
		}
	}
	// Exp2.
	for _, x0 := range []int64{2, 4, 6} {
		net, _ := synth.Exp2Spec{X: "x", Y: "y"}.Build()
		net.SetInitialByName("x", x0)
		add("exp2", fmt.Sprint(x0), int64(1)<<uint(x0), net, nil, trials)
	}
	// Log2.
	for _, x0 := range []int64{8, 32, 100} {
		spec := synth.Log2Spec{X: "x", Y: "y"}
		net, _ := spec.Build()
		net.SetInitialByName("x", x0)
		add("log2", fmt.Sprint(x0), int64(math.Ceil(math.Log2(float64(x0)))), net, spec.DonePredicate(net), trials)
	}
	// Power.
	for _, c := range []struct{ x, p, want int64 }{{2, 2, 4}, {3, 2, 9}, {2, 3, 8}} {
		net, _ := synth.PowerSpec{X: "x", P: "p", Y: "y"}.Build()
		net.SetInitialByName("x", c.x)
		net.SetInitialByName("p", c.p)
		add(fmt.Sprintf("power %d^%d", c.x, c.p), fmt.Sprintf("%d,%d", c.x, c.p), c.want, net, nil, powerTrials(trials))
	}
	// Isolation.
	for _, y0 := range []int64{5, 50} {
		net, _ := synth.IsolationSpec{Y: "y", C: "c"}.Build()
		net.SetInitialByName("y", y0)
		net.SetInitialByName("c", 3)
		add("isolation", fmt.Sprint(y0), 1, net, nil, trials)
	}
	fmt.Print(tab.Render())
}

// pipeline runs the paper's complete methodology: characterise the natural
// system, fit, quantise, synthesise, and validate the synthetic system
// against the natural response.
func pipeline(trials int, seed uint64) {
	trials = pipelineTrials(trials)
	mois := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	natural, err := lambda.NaturalModel(lambda.NaturalParams{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	natural.Engine = engineKind
	natPts := lambda.SweepMOI(natural, mois, trials, seed)
	fitted, err := lambda.FitResponse(natPts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("1. natural response fit:   %s\n", fitted)
	params, err := lambda.RoundToParams(fitted)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("2. quantised parameters:   A=%d B=%d CInv=%d  (P%% = %d + %d·log2 + MOI/%d)\n",
		params.A, params.B, params.CInv, params.A, params.B, params.CInv)
	model, err := lambda.Synthesize(params)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("3. synthesised model:      %d reactions in %d species\n",
		model.Net.NumReactions(), model.Net.NumSpecies())
	model.Engine = engineKind
	synPts := lambda.SweepMOI(model, mois, trials, seed+77)
	var rms float64
	tab := plot.Table{Headers: []string{"MOI", "natural %", "synthetic %"}}
	for i, moi := range mois {
		d := synPts[i].PctLysogeny - natPts[i].PctLysogeny
		rms += d * d
		tab.Add(fmt.Sprintf("%d", moi),
			fmt.Sprintf("%.2f", natPts[i].PctLysogeny),
			fmt.Sprintf("%.2f", synPts[i].PctLysogeny))
	}
	rms = math.Sqrt(rms / float64(len(mois)))
	fmt.Print(tab.Render())
	fmt.Printf("4. validation: RMS deviation %.2f percentage points\n", rms)
}

// pipelineTrials caps -trials for the pipeline's two lambda sweeps.
func pipelineTrials(n int) int { return min(n, 5000) }

// moduleHist runs trials of a deterministic module and returns the
// histogram of its final count of out, one unit-width bin per value from
// the smallest final to the largest, and the finals' mean. Trial i draws
// from the stream (seed, i) on its worker's reused engine. The 2M-event
// cap bounds the range of finals, and their integer sum is exact, so the
// mean is bit for bit any float fold of the same counts.
func moduleHist(net *chem.Network, out chem.Species, done func(chem.State, float64) bool, trials int, seed uint64) (mc.HistSummary, float64) {
	comp := chem.Compile(net)
	st0 := net.InitialState()
	finals := make([]int64, trials)
	mc.ForEachTrial(mc.Config{Seed: seed}, 0, trials,
		func(gen *rng.PCG) sim.Engine { return sim.NewDirectCompiled(comp, gen) },
		func(_, i int, eng sim.Engine) {
			eng.Reset(st0, 0)
			sim.Run(eng, sim.RunOptions{StopWhen: done, MaxSteps: 2_000_000})
			finals[i] = eng.State()[out]
		})
	lo, hi := slices.Min(finals), slices.Max(finals)
	h := mc.NewHistSummary(mc.HistConfig{Lo: lo, Width: 1, Bins: int(hi - lo + 1)})
	var sum int64
	for _, v := range finals {
		h.Add(v)
		sum += v
	}
	return h, float64(sum) / float64(trials)
}
