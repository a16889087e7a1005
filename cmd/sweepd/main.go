// Command sweepd runs distributed Monte Carlo sweeps over the named trial
// factories in shard.Builtin (see docs/sharding.md).
//
// Serve mode runs a long-lived network worker for remote coordinators: a
// TCP server speaking the length-prefixed, checksummed shard framing
// (shard.Serve), drained gracefully on SIGINT/SIGTERM:
//
//	sweepd -serve 0.0.0.0:7471
//
// Coordinator mode partitions a sweep, fans the shards out, and merges:
//
//	sweepd -sweep lambda/natural -params 1,2,3 -trials 100000 -shards 8
//
// Model mode (wire format v3) coordinates a sweep over a user-submitted
// network instead of a registered factory: the reaction-text file is
// carried inside every ShardSpec, so workers — including -serve fleets
// that have never seen the model — validate, compile and run it
// themselves. The sweep id is the content address of the model
// (NetworkSpec.SweepID), so reruns and journal resumes merge exactly:
//
//	sweepd -model toggle.crn -obs race -obs-a a:40 -obs-b b:40 \
//	       -param-rate mka -params 50,100 -trials 20000
//
// By default shards run in-process, one at a time: each shard already
// spreads its trials over every core through mc's worker pool. With
// -workers the shards are dispatched over TCP to a fleet of -serve
// workers, one in flight per worker. Either way the merged tallies are
// bit-for-bit identical to a single-process mc.Sweep run, and the summary
// line counts the shards this run dispatched. The -dist sweeps accumulate
// full distribution summaries per grid point (moments, quantile sketch,
// fixed-bin histogram, first-passage steps) with the same bit-for-bit
// merge guarantee. With -journal every completed shard is durably logged
// first, so a killed coordinator rerun with the same command resumes from
// the journal and computes only the missing trials.
//
// Flags (coordinator mode):
//
//	-sweep NAME    sweep id (see -list; arity/kind come from the registry)
//	-params LIST   comma-separated parameter grid (MOIs, or γ for fig3)
//	-trials N      total Monte Carlo trials per grid point
//	-seed S        base RNG seed (default 2007)
//	-shards K      number of shards to partition the trials into (K ≥ 1)
//	-workers LIST  comma-separated worker addresses (sweepd -serve fleet)
//	-shard-timeout D  per-shard network deadline (hung workers time out);
//	               only with -workers; 0 = none
//	-journal PATH  crash-safe shard journal; an existing journal resumes
//	-retries R     re-dispatch attempts per failing shard (default 1;
//	               0 = none)
//	-list          print the registered sweep ids and exit
//
// Flags (model mode, replacing -sweep; a registered -sweep fixes its own
// engine and observable):
//
//	-model FILE         network in the chem reaction-text format
//	-obs KIND           observable kind: race or endpoint
//	-obs-a SPECIES:N    first race threshold / endpoint classification split
//	-obs-b SPECIES:N    second race threshold (race only)
//	-obs-value SPECIES  species whose final count is the observable value
//	                    (default: the margin count(A) − count(B))
//	-param-species NAME grid values set this species' initial count
//	-param-rate LABEL   grid values set the rate of reactions labeled LABEL
//	-engine KIND        simulation engine (default: optimized exact engine)
//	-max-steps N        per-trial jump-chain bound (default: the wire default)
//	-hist LO:WIDTH:BINS histogram layout; makes the sweep a distribution
//	                    sweep (full per-point summaries, like -dist sweeps)
//
// A flag the chosen mode does not read (see modes), or one out of range,
// exits 1 naming it, before anything runs, listens or prints.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stochsynth/internal/cli"
	"stochsynth/internal/mc"
	"stochsynth/internal/plot"
	"stochsynth/internal/scenario"
	"stochsynth/internal/shard"
)

// coordinated lists the flags every coordinator mode reads.
var coordinated = []string{"params", "trials", "seed", "shards", "workers", "shard-timeout", "journal", "retries"}

// modes lists sweepd's modes and the flags each reads; main runs the first
// whose selector is set. A worker runs the shards its coordinators send,
// and a registered -sweep fixes its own engine and observable, so it reads
// no model flag.
var modes = []cli.Mode{
	{Name: "-serve", Reads: []string{"serve"}},
	{Name: "-list", Reads: []string{"list"}},
	{Name: "-sweep", Reads: append([]string{"sweep"}, coordinated...)},
	{Name: "-model", Reads: append([]string{"model", "obs", "obs-a", "obs-b", "obs-value",
		"param-species", "param-rate", "engine", "max-steps", "hist"}, coordinated...)},
}

func main() {
	var (
		serve   = flag.String("serve", "", "serve shards over TCP on this listen address (host:port; :0 picks a port); takes no other flag")
		sweep   = flag.String("sweep", "", "sweep id to coordinate (see -list)")
		params  = flag.String("params", "", "comma-separated parameter grid")
		trials  = flag.Int("trials", 20000, "total Monte Carlo trials per grid point")
		seed    = flag.Uint64("seed", 2007, "base RNG seed")
		shards  = flag.Int("shards", 4, "number of shards (at least 1)")
		workers = flag.String("workers", "", "comma-separated addresses of sweepd -serve workers to dispatch to")
		shardTO = flag.Duration("shard-timeout", 0, "per-shard network round-trip deadline, only with -workers (0 = none); a hung worker's shards time out and retry elsewhere")
		journal = flag.String("journal", "", "crash-safe shard journal path; an existing journal resumes the sweep")
		retries = flag.Int("retries", 1, "re-dispatch attempts per failing shard (0 = none)")
		list    = flag.Bool("list", false, "list registered sweep ids and exit; takes no other flag")

		model        = flag.String("model", "", "network file (chem reaction-text format) to sweep instead of a registered -sweep")
		obsKind      = flag.String("obs", "race", "model observable kind: race or endpoint")
		obsA         = flag.String("obs-a", "", "model observable species A threshold, SPECIES:COUNT")
		obsB         = flag.String("obs-b", "", "model observable species B threshold, SPECIES:COUNT (race only)")
		obsValue     = flag.String("obs-value", "", "model observable value species (default: margin A−B)")
		paramSpecies = flag.String("param-species", "", "model param action: grid value sets this species' initial count")
		paramRate    = flag.String("param-rate", "", "model param action: grid value sets the rate of reactions with this label")
		engine       = flag.String("engine", "", "model simulation engine kind (default: optimized exact engine)")
		maxSteps     = flag.Int64("max-steps", 0, "model per-trial jump-chain step bound (0 = wire default)")
		hist         = flag.String("hist", "", "model histogram layout LO:WIDTH:BINS; set to run a distribution sweep")
	)
	flag.Parse()

	mode := modes[slices.Index([]bool{*serve != "", *list, *sweep != "", true}, true)]
	outOfRange := func(name string) string {
		switch {
		case name == "shard-timeout" && *workers == "":
			return "can be used only with -workers: in-process shards have no round trip to bound"
		case name == "shard-timeout" && *shardTO < 0:
			return fmt.Sprintf("%v: want a non-negative deadline (0 = none)", *shardTO)
		case name == "shards" && *shards < 1:
			return fmt.Sprintf("%d: want at least one shard", *shards)
		case name == "retries" && *retries < 0:
			return fmt.Sprintf("%d: want a non-negative retry count", *retries)
		}
		return ""
	}
	if mode.Refuse(flag.CommandLine, "sweepd", outOfRange) {
		os.Exit(1)
	}

	reg := shard.Builtin()
	scenario.Register(reg)
	modelSpec := modelFlags{
		path: *model, obs: *obsKind, a: *obsA, b: *obsB, value: *obsValue,
		paramSpecies: *paramSpecies, paramRate: *paramRate,
		engine: *engine, maxSteps: *maxSteps, hist: *hist,
	}
	switch {
	case *list:
		for _, name := range reg.Names() {
			fmt.Println(name)
		}
	case *serve != "":
		if err := serveWorker(reg, *serve); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
	default:
		if err := coordinate(reg, *sweep, modelSpec, *params, *trials, *seed, *shards, *workers, *shardTO, *journal, *retries); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
	}
}

// modelFlags bundles the -model flag set; zero path means registry mode.
type modelFlags struct {
	path, obs, a, b, value  string
	paramSpecies, paramRate string
	engine                  string
	maxSteps                int64
	hist                    string
}

// networkSpec builds and validates the wire payload from the -model
// flags. The heavy validation (parse, limits, species resolution) is
// shard.ShardSpec.Validate's job; this only assembles the spec shape.
func (m modelFlags) networkSpec() (*shard.NetworkSpec, error) {
	raw, err := os.ReadFile(m.path)
	if err != nil {
		return nil, err
	}
	ns := &shard.NetworkSpec{
		CRN:      string(raw),
		Engine:   m.engine,
		MaxSteps: m.maxSteps,
	}
	ns.Observable.Kind = m.obs
	if ns.Observable.SpeciesA, ns.Observable.CountA, err = parseThreshold(m.a); err != nil {
		return nil, fmt.Errorf("-obs-a: %w", err)
	}
	if m.b != "" {
		if ns.Observable.SpeciesB, ns.Observable.CountB, err = parseThreshold(m.b); err != nil {
			return nil, fmt.Errorf("-obs-b: %w", err)
		}
	}
	ns.Observable.Value = m.value
	switch {
	case m.paramSpecies != "" && m.paramRate != "":
		return nil, fmt.Errorf("-param-species and -param-rate are mutually exclusive")
	case m.paramSpecies != "":
		ns.Param = &shard.ParamSpec{Species: m.paramSpecies}
	case m.paramRate != "":
		ns.Param = &shard.ParamSpec{Rate: m.paramRate}
	}
	if m.hist != "" {
		hc, err := parseHist(m.hist)
		if err != nil {
			return nil, fmt.Errorf("-hist: %w", err)
		}
		ns.Hist = &hc
	}
	return ns, nil
}

// parseThreshold splits "species:count".
func parseThreshold(s string) (string, int64, error) {
	name, countStr, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("want SPECIES:COUNT, got %q", s)
	}
	count, err := strconv.ParseInt(countStr, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad count in %q: %w", s, err)
	}
	return name, count, nil
}

// parseHist splits "lo:width:bins".
func parseHist(s string) (mc.HistConfig, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return mc.HistConfig{}, fmt.Errorf("want LO:WIDTH:BINS, got %q", s)
	}
	lo, err1 := strconv.ParseInt(parts[0], 10, 64)
	width, err2 := strconv.ParseInt(parts[1], 10, 64)
	bins, err3 := strconv.Atoi(parts[2])
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return mc.HistConfig{}, fmt.Errorf("bad layout %q: %w", s, err)
		}
	}
	return mc.HistConfig{Lo: lo, Width: width, Bins: bins}, nil
}

// serveWorker runs the long-lived network worker until SIGINT/SIGTERM,
// then drains: in-flight shards finish and their results are delivered
// before the process exits.
func serveWorker(reg *shard.Registry, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := shard.Serve(ln, reg)
	// The resolved address line is the readiness signal scripts and tests
	// wait for (and, with ":0", the only way to learn the port).
	fmt.Printf("sweepd: serving %s\n", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sweepd: draining")
	srv.Drain()
	return nil
}

func coordinate(reg *shard.Registry, sweep string, model modelFlags, params string, trials int, seed uint64, shards_ int, workers string, shardTimeout time.Duration, journal string, retries int) error {
	if sweep == "" && model.path == "" {
		return fmt.Errorf("missing -sweep (known: %s) or -model; or use -serve / -list", strings.Join(reg.Names(), ", "))
	}
	grid, err := parseGrid(params)
	if err != nil {
		return err
	}
	var spec shard.SweepSpec
	if model.path != "" {
		ns, err := model.networkSpec()
		if err != nil {
			return err
		}
		// The sweep id is the model's content address: any rerun of the
		// same model (and any other coordinator submitting it) shards
		// under the same identity, which is what lets journals resume it.
		id, err := ns.SweepID()
		if err != nil {
			return err
		}
		spec = shard.SweepSpec{
			Sweep: id, Grid: grid, Trials: trials, Seed: seed,
			Outcomes: shard.NetworkOutcomes, Dist: ns.Hist != nil, Network: ns,
		}
		fmt.Printf("model %s: sweep %s\n", model.path, id)
	} else {
		// The registry is the source of truth for the sweep's kind and
		// arity; the CLI only names it.
		factory, err := reg.Lookup(sweep)
		if err != nil {
			return err
		}
		spec = shard.SweepSpec{
			Sweep: sweep, Grid: grid, Trials: trials, Seed: seed,
			Outcomes: factory.Outcomes, Numeric: factory.Numeric, Dist: factory.Dist,
		}
	}

	// Every shard already spreads its trials over all of its machine's
	// cores through mc's worker pool, so one shard at a time fills this
	// machine and one shard per worker fills a fleet. Tallies are
	// identical at any width.
	runner := shard.LocalRunner(reg)
	mode := "in-process"
	opts := shard.Options{Retries: retries, Parallel: 1}
	if workers != "" {
		addrs := strings.Split(workers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		// Without a ShardTimeout a hung (not dead) worker blocks its
		// shards forever — the retry machinery only fires on errors.
		pool, err := shard.NewRemotePool(addrs, shard.RemoteOptions{ShardTimeout: shardTimeout})
		if err != nil {
			return err
		}
		defer pool.Close()
		runner = pool.Runner()
		mode = fmt.Sprintf("%d network workers", len(addrs))
		opts.Parallel = len(addrs)
	}
	var dispatched int
	opts.OnShardDone = progressHook(&dispatched)

	start := time.Now()
	var merged shard.ShardResult
	if journal != "" {
		merged, err = shard.ResumeCoordinate(spec, journal, shards_, runner, opts)
	} else {
		merged, err = shard.Coordinate(spec, shards_, runner, opts)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	switch {
	case spec.Dist:
		renderDist(merged, grid, spec.Outcomes)
	case spec.Numeric:
		renderNumeric(merged, grid)
	default:
		renderTally(merged, grid, spec.Outcomes)
	}
	fmt.Printf("%d shards (%s), %s\n", dispatched, mode, elapsed)
	return nil
}

// progressHook reports per-shard completion on stderr (results tables stay
// on stdout), records in *dispatched the number of shards this run
// dispatched (0 when a journal already covers the sweep), and implements
// the deterministic crash hook SWEEPD_FAULT=die-after=K: exit hard —
// journal already fsync'd, nothing flushed gracefully — after the Kth
// completed shard, which is how the crash-recovery smoke kills a
// coordinator at an exact point.
func progressHook(dispatched *int) func(done, total int, res shard.ShardResult) {
	dieAfter := 0
	if fault, ok := strings.CutPrefix(os.Getenv("SWEEPD_FAULT"), "die-after="); ok {
		dieAfter, _ = strconv.Atoi(fault)
	}
	var mu sync.Mutex
	return func(done, total int, res shard.ShardResult) {
		mu.Lock()
		defer mu.Unlock()
		*dispatched = total
		fmt.Fprintf(os.Stderr, "sweepd: shard %v done (%d/%d)\n", res.Ranges, done, total)
		if dieAfter > 0 && done >= dieAfter {
			fmt.Fprintln(os.Stderr, "sweepd: injected crash (SWEEPD_FAULT=die-after)")
			os.Exit(137)
		}
	}
}

func renderTally(merged shard.ShardResult, grid []float64, outcomes int) {
	headers := []string{"param", "trials"}
	for o := 0; o < outcomes; o++ {
		headers = append(headers, fmt.Sprintf("p%d", o))
	}
	headers = append(headers, "none", fmt.Sprintf("95%% Wilson (p%d)", outcomes-1))
	tab := plot.Table{Headers: headers}
	for i := range grid {
		res, err := merged.ResultAt(i)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		row := []string{fmt.Sprintf("%g", grid[i]), fmt.Sprintf("%d", res.Trials)}
		for o := 0; o < outcomes; o++ {
			row = append(row, fmt.Sprintf("%.4f", res.Fraction(o)))
		}
		lo, hi := res.Proportion(outcomes - 1).Wilson(mc.Z95)
		row = append(row, fmt.Sprintf("%d", res.None), fmt.Sprintf("[%.4f, %.4f]", lo, hi))
		tab.Add(row...)
	}
	fmt.Print(tab.Render())
}

func renderNumeric(merged shard.ShardResult, grid []float64) {
	tab := plot.Table{Headers: []string{"param", "trials", "mean", "stderr", "min", "max"}}
	for i := range grid {
		s, err := merged.SummaryAt(i)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		tab.Add(
			fmt.Sprintf("%g", grid[i]),
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.6g", s.Mean),
			fmt.Sprintf("%.3g", s.StdErr()),
			fmt.Sprintf("%g", s.Min),
			fmt.Sprintf("%g", s.Max),
		)
	}
	fmt.Print(tab.Render())
}

// renderDist prints one row per grid point of a distribution sweep: the
// moment summary of the continuous observable, its sketch quantiles, the
// histogram's mode bin, and the per-outcome mean first-passage step
// counts.
func renderDist(merged shard.ShardResult, grid []float64, outcomes int) {
	headers := []string{"param", "trials", "mean", "p10", "p50", "p90", "hist mode"}
	for o := 0; o < outcomes; o++ {
		headers = append(headers, fmt.Sprintf("p%d", o), fmt.Sprintf("steps%d", o))
	}
	headers = append(headers, "none")
	tab := plot.Table{Headers: headers}
	for i := range grid {
		d, err := merged.DistAt(i)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		s := d.Moments.Summary()
		row := []string{
			fmt.Sprintf("%g", grid[i]),
			fmt.Sprintf("%d", d.N()),
			fmt.Sprintf("%.6g", s.Mean),
			fmt.Sprintf("%.6g", d.Sketch.Quantile(0.1)),
			fmt.Sprintf("%.6g", d.Sketch.Quantile(0.5)),
			fmt.Sprintf("%.6g", d.Sketch.Quantile(0.9)),
			fmt.Sprintf("%d", d.Hist.Mode()),
		}
		for o := 0; o < outcomes; o++ {
			row = append(row,
				fmt.Sprintf("%.4f", d.FPT.Proportion(o).Estimate()),
				fmt.Sprintf("%.1f", d.FPT.MeanSteps(o)))
		}
		row = append(row, fmt.Sprintf("%d", d.FPT.Unresolved.Count))
		tab.Add(row...)
	}
	fmt.Print(tab.Render())
}

func parseGrid(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("missing -params")
	}
	var grid []float64
	for _, field := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -params value %q: %w", field, err)
		}
		grid = append(grid, v)
	}
	return grid, nil
}
