package shard

import (
	"bytes"
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// TestHybridSweepShardsMergeBitwise: the hybrid engine draws each trial's
// randomness from the stream (seed, trial index) exactly like the exact
// engines, so hybrid sweeps must merge bit-for-bit across any shard count
// — the same exactness contract the sharding protocol gives every builtin.
// TestGoldenFig3NumericResult pins the synth/fig3-sweep ShardResult
// bytes — moment nodes of a real Figure 3 numeric shard — the same way
// the v1 tally fixtures are pinned: drift without a FormatVersion bump is
// the bug.
func TestGoldenFig3NumericResult(t *testing.T) {
	spec := ShardSpec{
		Version: FormatVersion, Sweep: SweepFig3Numeric,
		Grid: []float64{1}, Trials: 8, Lo: 0, Hi: 8, Seed: 11, Numeric: true,
	}
	res, err := Run(spec, Builtin())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardresult_fig3sweep.v3.json", enc)
}

// TestFig3NumericSweepAgreesWithTallyTrialForTrial: the numeric Figure 3
// sweep consumes exactly the tally sweep's trial streams, so the two
// agree trial for trial — the numeric Mean times the trial count *is* the
// tally's error count — and the numeric moments merge bit-for-bit across
// shard counts and match the single-process mc.SweepNumeric reference.
func TestFig3NumericSweepAgreesWithTallyTrialForTrial(t *testing.T) {
	reg := Builtin()
	grid := []float64{1, 100}
	const (
		trials = 60
		seed   = uint64(3)
	)
	numSpec := SweepSpec{Sweep: SweepFig3Numeric, Grid: grid, Trials: trials, Seed: seed, Numeric: true}
	one, err := Coordinate(numSpec, 1, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Coordinate(numSpec, 4, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneEnc, err := one.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fourEnc, err := four.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneEnc, fourEnc) {
		t.Fatal("fig3-sweep shards do not merge bit-for-bit")
	}

	tallySpec := SweepSpec{Sweep: SweepFig3Error, Grid: grid, Trials: trials, Seed: seed, Outcomes: 2}
	tally, err := Coordinate(tallySpec, 3, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	want := mc.SweepNumeric(mc.Config{Trials: trials, Seed: seed}, grid,
		func(gamma float64) mc.NumericTrial {
			mod, err := synth.Figure3Spec(gamma).Build()
			if err != nil {
				t.Fatal(err)
			}
			observe := synth.Figure3Observer(mod)
			comp := chem.Compile(mod.Net)
			protected := mod.ProtectedSpecies()
			return func(gen *rng.PCG) float64 {
				return float64(observe(sim.MustEngineOfKindCompiled("", comp, protected, gen)).Outcome)
			}
		})

	for i := range grid {
		s, err := four.SummaryAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !summariesIdentical(s, want[i].Summary) {
			t.Fatalf("γ=%v: sharded summary %+v, want bit-identical %+v", grid[i], s, want[i].Summary)
		}
		res, err := tally.ResultAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if errs := int64(math.Round(s.Mean * float64(s.N))); errs != res.Counts[1] {
			t.Fatalf("γ=%v: numeric mean %v implies %d errors, tally counted %d",
				grid[i], s.Mean, errs, res.Counts[1])
		}
	}
}

// TestFig3DistSweepAgreesWithTallyTrialForTrial: the synth/fig3-dist
// sweep observes the same single race per trial as the synth/fig3-error
// tally (synth.Figure3Observer wraps one RunRaceWith call on the same
// engines), so its first-passage class counts equal the tally's counts
// trial for trial, and its shards — aligned sketch forests included —
// merge bit-for-bit.
func TestFig3DistSweepAgreesWithTallyTrialForTrial(t *testing.T) {
	reg := Builtin()
	grid := []float64{1, 100}
	const (
		trials = 60
		seed   = uint64(3)
	)
	distSpec := SweepSpec{Sweep: SweepFig3Dist, Grid: grid, Trials: trials, Seed: seed, Outcomes: 2, Dist: true}
	one, err := Coordinate(distSpec, 1, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Coordinate(distSpec, 4, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneEnc, err := one.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fourEnc, err := four.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneEnc, fourEnc) {
		t.Fatal("fig3-dist shards do not merge bit-for-bit")
	}

	tallySpec := SweepSpec{Sweep: SweepFig3Error, Grid: grid, Trials: trials, Seed: seed, Outcomes: 2}
	tally, err := Coordinate(tallySpec, 3, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		d, err := four.DistAt(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tally.ResultAt(i)
		if err != nil {
			t.Fatal(err)
		}
		for o := range res.Counts {
			if d.FPT.Classes[o].Count != res.Counts[o] {
				t.Fatalf("γ=%v outcome %d: first-passage count %d, tally counted %d",
					grid[i], o, d.FPT.Classes[o].Count, res.Counts[o])
			}
		}
		if d.FPT.Unresolved.Count != res.None {
			t.Fatalf("γ=%v: unresolved %d, tally none %d", grid[i], d.FPT.Unresolved.Count, res.None)
		}
		// The race length is both the continuous and the integer observable,
		// so the moments and histogram must agree on the total event count.
		if d.Moments.N() != int64(trials) || d.Hist.N != int64(trials) {
			t.Fatalf("γ=%v: component trial counts %d/%d, want %d", grid[i], d.Moments.N(), d.Hist.N, trials)
		}
	}
}

// TestMOICurveNumericAgreesWithCharacterize: the lambda/moi-curve sweep
// measures the lysogeny indicator on exactly Characterize's engine and
// classifier, so its mean recovers the tally's lysogeny count exactly,
// and its shards merge bit-for-bit.
func TestMOICurveNumericAgreesWithCharacterize(t *testing.T) {
	reg := Builtin()
	grid := []float64{1, 5}
	const seed = uint64(7)
	trials := 120
	if testing.Short() {
		trials = 40 // full synthetic-model trials; keep the -race short suite fast
	}
	spec := SweepSpec{Sweep: SweepLambdaMOICurve, Grid: grid, Trials: trials, Seed: seed, Numeric: true}
	one, err := Coordinate(spec, 1, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, err := Coordinate(spec, 3, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneEnc, err := one.Encode()
	if err != nil {
		t.Fatal(err)
	}
	threeEnc, err := three.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneEnc, threeEnc) {
		t.Fatal("moi-curve shards do not merge bit-for-bit")
	}

	m := lambda.SyntheticModel()
	for i, param := range grid {
		s, err := three.SummaryAt(i)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Characterize(int64(param), trials, mc.PointSeed(seed, i))
		if got := int64(math.Round(s.Mean * float64(s.N))); got != res.Counts[lambda.Lysogeny] {
			t.Fatalf("MOI %v: numeric mean %v implies %d lysogens, Characterize counted %d",
				param, s.Mean, got, res.Counts[lambda.Lysogeny])
		}
		if s.N != int64(trials) {
			t.Fatalf("MOI %v: summary over %d trials, want %d", param, s.N, trials)
		}
	}
}

// TestLambdaDistSweepAgreesWithTally: the tally and -dist forms wrap one
// race body, lambda.Model.Observer (they cannot drift apart), so the
// synthetic -dist sweep's first-passage counts recover the tally exactly.
func TestLambdaDistSweepAgreesWithTally(t *testing.T) {
	reg := Builtin()
	grid := []float64{2}
	trials := 60
	if testing.Short() {
		trials = 20 // full synthetic-model trials; keep the -race short suite fast
	}
	const seed = uint64(19)
	distSpec := SweepSpec{Sweep: SweepLambdaSyntheticDist, Grid: grid, Trials: trials, Seed: seed, Outcomes: 2, Dist: true}
	dist, err := Coordinate(distSpec, 3, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	tallySpec := SweepSpec{Sweep: SweepLambdaSynthetic, Grid: grid, Trials: trials, Seed: seed, Outcomes: 2}
	tally, err := Coordinate(tallySpec, 2, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.DistAt(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tally.ResultAt(0)
	if err != nil {
		t.Fatal(err)
	}
	for o := range res.Counts {
		if d.FPT.Classes[o].Count != res.Counts[o] {
			t.Fatalf("outcome %d: first-passage count %d, tally counted %d", o, d.FPT.Classes[o].Count, res.Counts[o])
		}
	}
	if d.FPT.Unresolved.Count != res.None {
		t.Fatalf("unresolved %d, tally none %d", d.FPT.Unresolved.Count, res.None)
	}
}

func TestHybridSweepShardsMergeBitwise(t *testing.T) {
	spec := SweepSpec{
		Sweep: SweepLambdaSyntheticHybrid, Grid: []float64{1, 5},
		Trials: 300, Seed: 9, Outcomes: 2,
	}
	reg := Builtin()
	one, err := Coordinate(spec, 1, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Coordinate(spec, 4, LocalRunner(reg), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Grid {
		a, err := one.ResultAt(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := four.ResultAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if a.Counts[0] != b.Counts[0] || a.Counts[1] != b.Counts[1] || a.None != b.None {
			t.Fatalf("grid point %d: shards=1 %v vs shards=4 %v", i, a, b)
		}
	}
}
