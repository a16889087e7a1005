package main

import (
	"fmt"
	"math"

	"stochsynth/internal/lambda"
	"stochsynth/internal/scenario"
	"stochsynth/internal/shard"
)

// workload is one set of generated sweeps driven through one runner shape.
// Sizes are per timed rep at scale 1; each rep takes about 1.5 s on a
// 2-core host, so a run of a few tens of seconds yields a median over ten
// or more reps.
type workload struct {
	name string
	why  string
	// shards is the Coordinate/ResumeCoordinate partition count of every
	// sweep; parallel bounds concurrently dispatched shards.
	shards, parallel int
	// fleet dispatches to two in-process shard.Serve workers over loopback
	// TCP through a RemotePool, journaling every rep; otherwise shards run
	// in-process through LocalRunner, as sweepd does by default.
	fleet bool
	// sweeps generates the workload's inputs from the benchmark seed.
	sweeps func(seed uint64, scale float64) []shard.SweepSpec
	// check holds the merged results to the model's analytic or pinned
	// answer; it returns one message per violated check and the number of
	// checks made.
	check func(specs []shard.SweepSpec, results []shard.ShardResult) (failures []string, checks int)
}

var mois = []float64{1, 2, 4, 6, 8, 10}

var gammas = []float64{1, 10, 100, 1e3, 1e4, 1e5}

// scenarioTrials sizes each scenario to roughly 0.2–0.5 s per rep:
// Schlögl and antithetic trials are long, toggle and repressilator trials
// last microseconds.
var scenarioTrials = map[string]int{
	"antithetic":    800,
	"plesa":         8000,
	"repressilator": 40000,
	"schlogl":       300,
	"toggle":        24000,
}

var workloads = []*workload{
	{
		name: "fig5-natural",
		why: "Figure 5 MOI sweep on the natural lambda model in-process: exact-kernel races " +
			"under the mc tally runner; wire, journal and transport are bypassed",
		shards: 4, parallel: 1,
		sweeps: func(seed uint64, scale float64) []shard.SweepSpec {
			return []shard.SweepSpec{{
				Sweep: shard.SweepLambdaNatural, Grid: mois, Trials: scaled(6000, scale),
				Seed: deriveSeed(seed, 0, 0), Outcomes: 2,
			}}
		},
		check: checkNatural,
	},
	{
		name: "fig5-hybrid-dist",
		why: "the same sweep on the Figure 4 synthetic model: hybrid relay propagation and the " +
			"mc distribution fold, which fig5-natural does not run",
		shards: 4, parallel: 1,
		sweeps: func(seed uint64, scale float64) []shard.SweepSpec {
			return []shard.SweepSpec{{
				Sweep: shard.SweepLambdaSyntheticHybridDist, Grid: mois, Trials: scaled(3500, scale),
				Seed: deriveSeed(seed, 1, 0), Outcomes: 2, Dist: true,
			}}
		},
		check: checkHybrid,
	},
	{
		name: "fig3-fleet",
		why: "Figure 3 gamma sweep in 120 short shards over two loopback TCP workers with a " +
			"journal: the only workload where wire, transport and journal run",
		shards: 120, parallel: 2, fleet: true,
		sweeps: func(seed uint64, scale float64) []shard.SweepSpec {
			return []shard.SweepSpec{{
				Sweep: shard.SweepFig3Dist, Grid: gammas, Trials: scaled(20000, scale),
				Seed: deriveSeed(seed, 2, 0), Outcomes: 2, Dist: true,
			}}
		},
		check: checkFig3,
	},
	{
		name: "scenario-mix",
		why: "the five pinned scenario networks as wire-format v3 sweeps: network shapes the " +
			"lambda models lack, parsed and compiled on every shard",
		shards: 16, parallel: 1,
		sweeps: func(seed uint64, scale float64) []shard.SweepSpec {
			var specs []shard.SweepSpec
			for k, s := range scenario.All() {
				spec, err := s.SweepSpec()
				if err != nil {
					panic(err) // the library is pinned; a bad spec is a bug
				}
				spec.Trials = scaled(scenarioTrials[s.Name], scale)
				spec.Seed = deriveSeed(seed, 3, uint64(k))
				specs = append(specs, spec)
			}
			return specs
		},
		check: checkScenarios,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func scaled(trials int, scale float64) int {
	return max(1, int(math.Round(float64(trials)*scale)))
}

// deriveSeed maps the benchmark seed to the seed of one sweep with
// SplitMix64, local to the benchmark so the program under test only ever
// sees the generated specs.
func deriveSeed(seed, workload, sweep uint64) uint64 {
	z := seed ^ (workload+1)*0x9e3779b97f4a7c15 ^ (sweep+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func totalTrials(specs []shard.SweepSpec) int {
	n := 0
	for _, s := range specs {
		n += s.Trials * len(s.Grid)
	}
	return n
}

// within reports whether |got − want| ≤ tol.
func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func sigma(p float64, n int64) float64 { return math.Sqrt(p * (1 - p) / float64(n)) }

// checkNatural: every MOI point lies within 5 pp + 6σ of Equation 14.
func checkNatural(_ []shard.SweepSpec, results []shard.ShardResult) ([]string, int) {
	var fails []string
	res := results[0]
	for i, moi := range res.Grid {
		r, err := res.ResultAt(i)
		if err != nil {
			return []string{err.Error()}, 1
		}
		want := lambda.Reference().Eval(moi) / 100
		got := r.Fraction(lambda.Lysogeny)
		if tol := 0.05 + 6*sigma(want, r.Trials); !within(got, want, tol) {
			fails = append(fails, fmt.Sprintf("fig5-natural MOI %g: lysogeny %.4f, Eq. 14 gives %.4f ± %.4f", moi, got, want, tol))
		}
	}
	return fails, len(res.Grid)
}

// checkHybrid: every MOI point lies within 6σ + 1 pp of the programmed
// Figure 4 response.
func checkHybrid(_ []shard.SweepSpec, results []shard.ShardResult) ([]string, int) {
	var fails []string
	res := results[0]
	for i, moi := range res.Grid {
		d, err := res.DistAt(i)
		if err != nil {
			return []string{err.Error()}, 1
		}
		want := lambda.Programmed(lambda.SynthesisParams{A: 15, B: 6, CInv: 6}, int64(moi)) / 100
		got := d.FPT.Proportion(lambda.Lysogeny).Estimate()
		if tol := 0.01 + 6*sigma(want, d.N()); !within(got, want, tol) {
			fails = append(fails, fmt.Sprintf("fig5-hybrid-dist MOI %g: lysogeny %.4f, programmed %.4f ± %.4f", moi, got, want, tol))
		}
	}
	return fails, len(res.Grid)
}

// checkFig3: the error fraction falls from γ = 1 to below 1% at γ = 1e5.
func checkFig3(_ []shard.SweepSpec, results []shard.ShardResult) ([]string, int) {
	res := results[0]
	errAt := func(i int) (float64, error) {
		d, err := res.DistAt(i)
		return d.FPT.Proportion(1).Estimate(), err
	}
	first, err1 := errAt(0)
	last, err2 := errAt(len(res.Grid) - 1)
	if err1 != nil || err2 != nil {
		return []string{fmt.Sprint("fig3-fleet: ", err1, err2)}, 1
	}
	if !(last < first && last < 0.01) {
		return []string{fmt.Sprintf("fig3-fleet: error fraction %.4f at γ=%g, %.4f at γ=%g; want a fall to below 0.01",
			first, res.Grid[0], last, res.Grid[len(res.Grid)-1])}, 1
	}
	return nil, 1
}

// checkScenarios: every point meets its scenario.Pin. Pins are ≳5σ at the
// scenario's own trial count; a sweep with fewer trials (the scaled-down
// smoke test) widens them by √(pinned/actual).
func checkScenarios(specs []shard.SweepSpec, results []shard.ShardResult) ([]string, int) {
	var fails []string
	checks := 0
	for k, s := range scenario.All() {
		res := results[k]
		widen := math.Sqrt(max(1, float64(s.Trials)/float64(specs[k].Trials)))
		for i, pin := range s.Pins {
			d, err := res.DistAt(i)
			if err != nil {
				return []string{err.Error()}, checks + 1
			}
			checks++
			p0 := d.FPT.Proportion(0).Estimate()
			mean := d.Moments.Summary().Mean
			if !within(p0, pin.P0, pin.P0Tol*widen) || !within(mean, pin.Mean, pin.MeanTol*widen) {
				fails = append(fails, fmt.Sprintf("scenario %s point %d: P0 %.4f, mean %.3f; pin %.3f±%.3f, %.2f±%.2f",
					s.Name, i, p0, mean, pin.P0, pin.P0Tol*widen, pin.Mean, pin.MeanTol*widen))
			}
		}
	}
	return fails, checks
}
