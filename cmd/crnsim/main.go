// Command crnsim simulates a chemical reaction network described in the
// .crn text format.
//
// Usage:
//
//	crnsim [flags] network.crn
//
// Modes:
//
//	(no mode flag)    print one stochastic trajectory as CSV
//	-trials N         Monte Carlo: run N trials and report final-state stats
//	                  (N >= 0; default 0 = a single trace)
//	-mean             with -trials: ensemble mean±stderr time-course as CSV
//	                  (grid of 20 points up to -maxtime, which is required)
//	-species a,b,c    restrict reporting to these species
//	-engine E         direct | optimized | first-reaction | hybrid
//	                  (default direct; see docs/engines.md)
//	-maxtime T        stop a trajectory at simulated time T (finite, >= 0;
//	                  default 0 = no bound)
//	-maxsteps N       stop a trajectory after N events (N >= 0; default 1e6;
//	                  0 = no bound); trace and final-state modes only
//	-seed S           RNG seed (default 1)
//	-validate         validate the network and exit
//	-dot              print a Graphviz rendering and exit
//
// A flag the chosen mode does not read (see modes), or one out of range,
// exits 1 naming it, before the network is read.
//
// Examples:
//
//	crnsim -validate model.crn
//	crnsim -maxtime 100 model.crn > trajectory.csv
//	crnsim -trials 10000 -species cro2,ci2 model.crn
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"stochsynth/internal/chem"
	"stochsynth/internal/cli"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// modes lists crnsim's modes and the flags each reads; main runs the first
// whose selector is set. -mean runs every trajectory to -maxtime: an event
// bound would bias every later grid point, so it does not read -maxsteps.
var modes = []cli.Mode{
	{Name: "-validate", Reads: []string{"validate"}},
	{Name: "-dot", Reads: []string{"dot"}},
	{Name: "-mean", Reads: []string{"mean", "trials", "species", "engine", "maxtime", "seed"}},
	{Name: "a trace or final-state run", Reads: []string{"trials", "species", "engine", "maxtime", "maxsteps", "seed"}},
}

func main() {
	var (
		trials   = flag.Int("trials", 0, "Monte Carlo trial count, >= 0 (0 = single trace)")
		species  = flag.String("species", "", "comma-separated species to report (default all)")
		engine   = flag.String("engine", "direct", "simulation engine: direct|optimized|first-reaction|hybrid")
		maxTime  = flag.Float64("maxtime", 0, "simulated-time bound (0 = none)")
		maxSteps = flag.Int64("maxsteps", 1_000_000, "event-count bound of the trace and final-state modes, >= 0 (0 = none; -mean refuses it)")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		mean     = flag.Bool("mean", false, "with -trials: ensemble mean time-course (requires -maxtime)")
		validate = flag.Bool("validate", false, "validate the network and exit")
		dot      = flag.Bool("dot", false, "print Graphviz and exit")
	)
	flag.Parse()
	mode := modes[slices.Index([]bool{*validate, *dot, *mean, true}, true)]
	outOfRange := func(name string) string {
		switch {
		// A NaN or negative bound would silently read as "no bound", and a
		// -mean grid cannot end at infinity.
		case name == "maxtime" && (math.IsNaN(*maxTime) || math.IsInf(*maxTime, 0) || *maxTime < 0):
			return fmt.Sprintf("%v: want a finite, non-negative time (0 = no bound)", *maxTime)
		// Likewise a negative count: sim.Run reads it as "no event bound",
		// and a negative trial count would run the single trace.
		case name == "maxsteps" && *maxSteps < 0:
			return fmt.Sprintf("%d: want a non-negative event count (0 = no bound)", *maxSteps)
		case name == "trials" && *trials < 0:
			return fmt.Sprintf("%d: want a non-negative trial count (0 = single trace)", *trials)
		}
		return ""
	}
	if mode.Refuse(flag.CommandLine, "crnsim", outOfRange) {
		os.Exit(1)
	}
	if *mean && *trials <= 0 {
		fatal(fmt.Errorf("-mean requires a positive -trials"))
	}
	if *mean && *maxTime <= 0 {
		fatal(fmt.Errorf("-mean requires a positive -maxtime"))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crnsim [flags] network.crn")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	net, err := chem.ParseNetwork(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	switch {
	case *validate:
		issues := chem.Validate(net)
		for _, is := range issues {
			fmt.Println(is)
		}
		if len(chem.Errors(issues)) > 0 {
			os.Exit(1)
		}
		fmt.Printf("ok: %d species, %d reactions\n", net.NumSpecies(), net.NumReactions())
		return
	case *dot:
		fmt.Print(chem.Graphviz(net))
		return
	}

	report, err := selectSpecies(net, *species)
	if err != nil {
		fatal(err)
	}
	mk, err := engineFactory(*engine, net)
	if err != nil {
		fatal(err)
	}
	opts := sim.RunOptions{MaxTime: *maxTime, MaxSteps: *maxSteps}

	if *trials == 0 {
		eng := mk(rng.New(*seed))
		var tr sim.Trajectory
		opts.OnEvent = tr.RecordAll(eng)
		res := sim.Run(eng, opts)
		fmt.Print(projectCSV(&tr, net, report))
		fmt.Fprintf(os.Stderr, "stopped: %s after %d events at t=%g\n", res.Reason, res.Steps, res.Time)
		return
	}

	if *mean {
		const points = 20
		grid := make([]float64, points)
		for i := range grid {
			grid[i] = *maxTime * float64(i+1) / points
		}
		ens := sim.EnsembleStats(net, grid, mc.Config{Trials: *trials, Seed: *seed}, mk)
		fmt.Print(ensembleCSV(ens, net, report))
		return
	}

	// One pass fills a column per reported species; each column folds
	// exactly as mc.RunNumericWith folds its measurements.
	st0 := net.InitialState()
	cols := make([][]float64, len(report))
	for j := range cols {
		cols[j] = make([]float64, *trials)
	}
	mc.ForEachTrial(mc.Config{Seed: *seed}, 0, *trials, mk, func(_, i int, eng sim.Engine) {
		eng.Reset(st0, 0)
		sim.Run(eng, opts)
		st := eng.State()
		for j, sp := range report {
			cols[j][i] = float64(st[sp])
		}
	})
	for j, sp := range report {
		s := mc.NewMoments(0, cols[j]).Summary()
		fmt.Printf("%-12s mean=%.4f stderr=%.4f min=%g max=%g (n=%d)\n",
			net.Name(sp), s.Mean, s.StdErr(), s.Min, s.Max, s.N)
	}
}

// engineFactory validates an engine name against sim.EngineKinds and
// compiles net once; the returned constructor builds engines over the
// shared kernel, one per Monte Carlo worker. The hybrid protects nothing.
func engineFactory(name string, net *chem.Network) (func(*rng.PCG) sim.Engine, error) {
	kind, err := sim.ParseEngineKind(name)
	if err != nil || kind == "" {
		return nil, fmt.Errorf("unknown engine %q (known: %v)", name, sim.EngineKinds())
	}
	comp := chem.Compile(net)
	return func(gen *rng.PCG) sim.Engine {
		return sim.MustEngineOfKindCompiled(kind, comp, nil, gen)
	}, nil
}

func selectSpecies(net *chem.Network, list string) ([]chem.Species, error) {
	if list == "" {
		all := make([]chem.Species, net.NumSpecies())
		for i := range all {
			all[i] = chem.Species(i)
		}
		return all, nil
	}
	var out []chem.Species
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		sp, ok := net.SpeciesByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown species %q", name)
		}
		out = append(out, sp)
	}
	return out, nil
}

func projectCSV(tr *sim.Trajectory, net *chem.Network, report []chem.Species) string {
	var b strings.Builder
	b.WriteString("t")
	for _, sp := range report {
		b.WriteByte(',')
		b.WriteString(net.Name(sp))
	}
	b.WriteByte('\n')
	for i, t := range tr.Times {
		fmt.Fprintf(&b, "%g", t)
		for _, sp := range report {
			fmt.Fprintf(&b, ",%d", tr.States[i][sp])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func ensembleCSV(ens *sim.Ensemble, net *chem.Network, report []chem.Species) string {
	var b strings.Builder
	b.WriteString("t")
	for _, sp := range report {
		fmt.Fprintf(&b, ",%s,%s_stderr", net.Name(sp), net.Name(sp))
	}
	b.WriteByte('\n')
	for k, t := range ens.Times {
		fmt.Fprintf(&b, "%g", t)
		for _, sp := range report {
			fmt.Fprintf(&b, ",%g,%g", ens.Mean[k][sp], ens.StdErr(k, sp))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crnsim:", err)
	os.Exit(1)
}
