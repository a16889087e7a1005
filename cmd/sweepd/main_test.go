package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// buildSweepd compiles this command into a scratch binary so tests can
// exercise the real cross-process worker protocol.
func buildSweepd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweepd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sweepd: %v\n%s", err, out)
	}
	return bin
}

// startServeWorker launches a real `sweepd -serve` process on a loopback
// port and waits for its readiness line, returning the resolved address.
func startServeWorker(t *testing.T, bin string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, "-serve", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "sweepd: serving "); ok {
			return addr, cmd
		}
	}
	t.Fatalf("worker never reported readiness (stdout closed: %v)", sc.Err())
	return "", nil
}

// serveFleet starts n `sweepd -serve` workers and returns a RemotePool
// over them, closed before the workers are killed at test end.
func serveFleet(t *testing.T, bin string, n int) *shard.RemotePool {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		addr, _ := startServeWorker(t, bin)
		addrs = append(addrs, addr)
	}
	pool, err := shard.NewRemotePool(addrs, shard.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

func encodedOrDie(t *testing.T, res shard.ShardResult) []byte {
	t.Helper()
	enc, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestServeWorkersMatchSingleProcess is the network end-to-end check:
// three real `sweepd -serve` processes on loopback serve a natural-lambda
// tally and a numeric Figure 3 sweep through RemotePool, and both merge
// exactly — χ² of 0 against Characterize for the tally, bit-identical
// moments against mc.SweepNumeric for the numeric sweep.
func TestServeWorkersMatchSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child binaries")
	}
	pool := serveFleet(t, buildSweepd(t), 3)

	// Natural-lambda tally over the fleet ≡ single-process Characterize.
	const (
		moi    = int64(3)
		trials = 3000
		seed   = uint64(2007)
	)
	tallySpec := shard.SweepSpec{
		Sweep: shard.SweepLambdaNatural, Grid: []float64{float64(moi)},
		Trials: trials, Seed: seed, Outcomes: 2,
	}
	merged, err := shard.Coordinate(tallySpec, 6, pool.Runner(), shard.Options{Parallel: 3, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := merged.ResultAt(0)
	if err != nil {
		t.Fatal(err)
	}
	natural, err := lambda.NaturalModel(lambda.NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	single := natural.Characterize(moi, trials, mc.PointSeed(seed, 0))
	if sharded.Trials != single.Trials || sharded.None != single.None {
		t.Fatalf("network trials/none %d/%d, single-process %d/%d",
			sharded.Trials, sharded.None, single.Trials, single.None)
	}
	for o, c := range single.Counts {
		if sharded.Counts[o] != c {
			t.Fatalf("outcome %d: network %d, single-process %d", o, sharded.Counts[o], c)
		}
	}
	classified := single.Counts[lambda.Lysis] + single.Counts[lambda.Lysogeny]
	probs := []float64{
		float64(single.Counts[lambda.Lysis]) / float64(classified),
		float64(single.Counts[lambda.Lysogeny]) / float64(classified),
	}
	if stat, err := mc.ChiSquare(sharded.Counts, probs); err != nil || stat != 0 {
		t.Fatalf("χ² between network and single-process tallies = %v (err %v), want exactly 0", stat, err)
	}

	// Numeric Figure 3 moments over the fleet ≡ mc.SweepNumeric bitwise.
	gammas := []float64{1, 100}
	numTrials := 400
	numSpec := shard.SweepSpec{
		Sweep: shard.SweepFig3Numeric, Grid: gammas, Trials: numTrials, Seed: 5, Numeric: true,
	}
	numMerged, err := shard.Coordinate(numSpec, 6, pool.Runner(), shard.Options{Parallel: 3, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := mc.SweepNumeric(mc.Config{Trials: numTrials, Seed: 5}, gammas,
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
	for i := range gammas {
		s, err := numMerged.SummaryAt(i)
		if err != nil {
			t.Fatal(err)
		}
		w := want[i].Summary
		if s.N != w.N ||
			math.Float64bits(s.Mean) != math.Float64bits(w.Mean) ||
			math.Float64bits(s.Var) != math.Float64bits(w.Var) ||
			math.Float64bits(s.Min) != math.Float64bits(w.Min) ||
			math.Float64bits(s.Max) != math.Float64bits(w.Max) {
			t.Fatalf("γ=%v: network summary %+v, want bit-identical %+v", gammas[i], s, w)
		}
	}
}

// TestNetworkSweepSurvivesWorkerKill hard-kills one of three serve
// workers mid-sweep; the coordinator must reassign its shards to the
// survivors and still merge bit-for-bit with the unsharded run.
func TestNetworkSweepSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child binaries")
	}
	bin := buildSweepd(t)
	var addrs []string
	var victims []*exec.Cmd
	for i := 0; i < 3; i++ {
		addr, cmd := startServeWorker(t, bin)
		addrs = append(addrs, addr)
		victims = append(victims, cmd)
	}
	pool, err := shard.NewRemotePool(addrs, shard.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec := shard.SweepSpec{
		Sweep: shard.SweepLambdaSynthetic, Grid: []float64{1, 5},
		Trials: 600, Seed: 42, Outcomes: 2,
	}
	var kill sync.Once
	var killed atomic.Bool
	opts := shard.Options{
		Parallel: 3, Retries: 4,
		OnShardDone: func(done, total int, res shard.ShardResult) {
			kill.Do(func() {
				victims[0].Process.Kill()
				killed.Store(true)
			})
		},
	}
	merged, err := shard.Coordinate(spec, 9, pool.Runner(), opts)
	if err != nil {
		t.Fatalf("coordinator did not survive the worker kill: %v", err)
	}
	if !killed.Load() {
		t.Fatal("kill hook never fired")
	}
	want, err := shard.Coordinate(spec, 1, shard.LocalRunner(shard.Builtin()), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodedOrDie(t, merged), encodedOrDie(t, want)) {
		t.Fatal("post-kill merge differs from unsharded run")
	}
}

// TestJournalResumeCLI drives the kill -9 walkthrough through the real
// binary: a journaled coordinator run is crashed deterministically after
// 2 shards (SWEEPD_FAULT=die-after=2), rerun with the identical command,
// and its output table must match the uninterrupted 1-shard run.
func TestJournalResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child binaries")
	}
	bin := buildSweepd(t)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	args := []string{"-sweep", "lambda/synthetic", "-params", "1,5", "-trials", "400",
		"-seed", "7", "-shards", "4", "-journal", journal}

	crash := exec.Command(bin, args...)
	crash.Env = append(os.Environ(), "SWEEPD_FAULT=die-after=2")
	if out, err := crash.CombinedOutput(); err == nil {
		t.Fatalf("fault-injected run exited 0:\n%s", out)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("crashed run left no journal: %v", err)
	}

	start := time.Now()
	resumed, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("resume run failed: %v", err)
	}
	t.Logf("resume took %v", time.Since(start).Round(time.Millisecond))

	reference, err := exec.Command(bin, "-sweep", "lambda/synthetic", "-params", "1,5",
		"-trials", "400", "-seed", "7", "-shards", "1").Output()
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	table := func(out []byte) string {
		lines := strings.Split(string(out), "\n")
		if len(lines) < 4 {
			t.Fatalf("short output:\n%s", out)
		}
		return strings.Join(lines[:4], "\n")
	}
	if table(resumed) != table(reference) {
		t.Fatalf("resumed table differs from uninterrupted run:\n%s\nvs\n%s", table(resumed), table(reference))
	}
}

// TestWorkerProtocolRoundTrip: one shard served by a `sweepd -serve`
// process encodes byte for byte as the same shard run in-process.
func TestWorkerProtocolRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a child binary")
	}
	pool := serveFleet(t, buildSweepd(t), 1)
	spec := shard.SweepSpec{
		Sweep: shard.SweepLambdaSynthetic, Grid: []float64{1, 5}, Trials: 200, Seed: 42, Outcomes: 2,
	}
	viaProcess, err := pool.Runner()(spec.Shard(50, 150))
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := shard.Run(spec.Shard(50, 150), shard.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	wire1, err := viaProcess.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := inProcess.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(wire1) != string(wire2) {
		t.Fatalf("worker process result differs from in-process run:\n%s\nvs\n%s", wire1, wire2)
	}
}

// TestFourProcessNaturalLambdaMatchesCharacterize is the chi-square
// end-to-end check: the natural lambda model's outcome tally, sharded
// across 4 `sweepd -serve` worker processes and merged, must be
// *identical* to the single-process Characterize result — bit-for-bit
// equal counts, hence a χ² homogeneity statistic of exactly zero.
func TestFourProcessNaturalLambdaMatchesCharacterize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child binaries")
	}
	const (
		moi    = int64(3)
		trials = 4000
		seed   = uint64(2007)
	)
	pool := serveFleet(t, buildSweepd(t), 4)
	spec := shard.SweepSpec{
		Sweep: shard.SweepLambdaNatural, Grid: []float64{float64(moi)},
		Trials: trials, Seed: seed, Outcomes: 2,
	}
	merged, err := shard.Coordinate(spec, 4, pool.Runner(), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := merged.ResultAt(0)
	if err != nil {
		t.Fatal(err)
	}

	natural, err := lambda.NaturalModel(lambda.NaturalParams{})
	if err != nil {
		t.Fatal(err)
	}
	single := natural.Characterize(moi, trials, mc.PointSeed(seed, 0))

	if sharded.Trials != single.Trials || sharded.None != single.None {
		t.Fatalf("sharded trials/none %d/%d, single-process %d/%d",
			sharded.Trials, sharded.None, single.Trials, single.None)
	}
	for o, c := range single.Counts {
		if sharded.Counts[o] != c {
			t.Fatalf("outcome %d: sharded %d, single-process %d", o, sharded.Counts[o], c)
		}
	}

	// The merged distribution is the single-process distribution, so the
	// χ² homogeneity statistic against it is exactly zero.
	classified := single.Counts[lambda.Lysis] + single.Counts[lambda.Lysogeny]
	probs := []float64{
		float64(single.Counts[lambda.Lysis]) / float64(classified),
		float64(single.Counts[lambda.Lysogeny]) / float64(classified),
	}
	stat, err := mc.ChiSquare(sharded.Counts, probs)
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 {
		t.Fatalf("χ² between merged and single-process tallies = %v, want exactly 0", stat)
	}
}

// TestFigure3ScaleSweepMatchesMcSweep pins the headline guarantee at the
// paper's measurement scale: a Figure 3 error-rate sweep, sharded across
// 4 `sweepd -serve` worker processes, merges to tallies bit-for-bit
// identical to a plain single-process mc.Sweep over the same γ grid
// (fresh-engine trials, no sharding machinery on the reference side).
func TestFigure3ScaleSweepMatchesMcSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child binaries; runs a large sweep")
	}
	gammas := []float64{1, 10, 100}
	trials := 100000 // the paper's "100,000 trials" scale
	const seed = uint64(7)

	pool := serveFleet(t, buildSweepd(t), 4)
	spec := shard.SweepSpec{
		Sweep: shard.SweepFig3Error, Grid: gammas, Trials: trials, Seed: seed, Outcomes: 2,
	}
	merged, err := shard.Coordinate(spec, 4, pool.Runner(), shard.Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.SweepPoints()
	if err != nil {
		t.Fatal(err)
	}

	want := mc.Sweep(mc.Config{Trials: trials, Outcomes: 2, Seed: seed}, gammas,
		func(gamma float64) mc.Trial {
			mod, err := synth.Figure3Spec(gamma).Build()
			if err != nil {
				t.Fatal(err)
			}
			observe := synth.Figure3Observer(mod)
			return func(gen *rng.PCG) int {
				return observe(sim.NewOptimizedDirect(mod.Net, gen)).Outcome
			}
		})

	for i := range want {
		w, g := want[i].Result, got[i].Result
		if w.Trials != g.Trials || w.None != g.None {
			t.Fatalf("γ=%v: trials/none %d/%d, want %d/%d", gammas[i], g.Trials, g.None, w.Trials, w.None)
		}
		for o := range w.Counts {
			if w.Counts[o] != g.Counts[o] {
				t.Fatalf("γ=%v outcome %d: sharded %d, mc.Sweep %d", gammas[i], o, g.Counts[o], w.Counts[o])
			}
		}
	}
}

// TestUnknownSweepFailsFastListingBuiltins: coordinator mode with an
// unknown or missing -sweep must fail before partitioning or dispatching
// anything, and the error must list every registered sweep id so the user
// can correct the command without running -list separately.
func TestUnknownSweepFailsFastListingBuiltins(t *testing.T) {
	bin := buildSweepd(t)
	names := shard.Builtin().Names()
	for _, args := range [][]string{
		{"-sweep", "bogus/sweep", "-params", "1,2", "-trials", "10"},
		{"-params", "1,2", "-trials", "10"}, // missing -sweep entirely
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		exitErr, ok := err.(*exec.ExitError)
		if !ok || exitErr.ExitCode() != 1 {
			t.Fatalf("%v: want exit code 1, got %v", args, err)
		}
		for _, name := range names {
			if !strings.Contains(stderr.String(), name) {
				t.Errorf("%v: stderr %q does not list sweep %q", args, stderr.String(), name)
			}
		}
		if strings.Contains(stdout.String(), "shards") {
			t.Errorf("%v: sweep appears to have run before the failure:\n%s", args, stdout.String())
		}
	}
}

// TestShardTimeoutRequiresWorkers: -shard-timeout bounds a network round
// trip, so without -workers it fails naming the flag before any output,
// in registry and model mode alike, instead of being silently ignored.
func TestShardTimeoutRequiresWorkers(t *testing.T) {
	bin := buildSweepd(t)
	for _, args := range [][]string{
		{"-sweep", "lambda/synthetic", "-params", "1", "-trials", "3", "-shards", "4", "-shard-timeout", "1ns"},
		{"-model", filepath.Join("testdata", "relay-chain.crn"), "-obs-a", "o1:6", "-obs-b", "o2:6",
			"-param-species", "x", "-params", "17", "-trials", "3", "-shard-timeout", "0"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		exitErr, ok := err.(*exec.ExitError)
		if !ok || exitErr.ExitCode() != 1 {
			t.Fatalf("%v: want exit code 1, got %v\nstdout:\n%s", args, err, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-shard-timeout") {
			t.Errorf("%v: stderr %q does not name -shard-timeout", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output produced before the failure:\n%s", args, stdout.String())
		}
	}
}

// TestFlagsRefusedByName: out-of-range counts exit 1 naming each flag,
// before any output. Read as they used to be, -shards below 1 ran one
// shard, a negative -retries no retries and a negative -shard-timeout no
// deadline, each exiting 0. The deadline case runs against a live worker,
// so only the refusal, not a failed dial, can stop it.
func TestFlagsRefusedByName(t *testing.T) {
	bin := buildSweepd(t)
	addr, _ := startServeWorker(t, bin)
	sweep := []string{"-sweep", "lambda/synthetic", "-params", "1", "-trials", "40"}
	for _, tc := range []struct {
		args  []string
		names []string
	}{
		{append(sweep, "-shards", "-2"), []string{"-shards"}},
		{append(sweep, "-shards", "0"), []string{"-shards"}},
		{append(sweep, "-retries", "-3"), []string{"-retries"}},
		{append(sweep, "-shard-timeout", "-1s", "-workers", addr), []string{"-shard-timeout"}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, tc.args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		exitErr, ok := err.(*exec.ExitError)
		if !ok || exitErr.ExitCode() != 1 {
			t.Errorf("%v: want exit code 1, got %v\nstdout:\n%s", tc.args, err, stdout.String())
			continue
		}
		for _, name := range tc.names {
			if !strings.Contains(stderr.String(), name+" ") {
				t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), name)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output produced before the failure:\n%s", tc.args, stdout.String())
		}
	}
}

// TestSummaryCountsDispatchedShards: the summary line counts the shards
// this run dispatched, not the -shards request. Three trials make at most
// three shards; a journaled 5-trial sweep in shards of ⌈5/4⌉ trials makes
// three; and a rerun that finds its journal complete dispatches none.
func TestSummaryCountsDispatchedShards(t *testing.T) {
	bin := buildSweepd(t)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "3"}, "3 shards (in-process)"},
		{[]string{"-trials", "5", "-journal", journal}, "3 shards (in-process)"},
		{[]string{"-trials", "5", "-journal", journal}, "0 shards (in-process)"},
	} {
		args := append([]string{"-sweep", "lambda/synthetic", "-params", "1", "-shards", "4"}, tc.args...)
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, tc.want+",") {
			t.Errorf("%v: summary %q, want it to start %q", args, last, tc.want)
		}
	}
}

// TestZeroTrialSweepsRender: a zero-trial sweep is legal and must render
// its table with zero estimates — not NaN from a 0/0 fraction, and not a
// panic on the empty distribution summary's missing outcome classes.
func TestZeroTrialSweepsRender(t *testing.T) {
	bin := buildSweepd(t)
	for _, args := range [][]string{
		{"-sweep", "lambda/natural", "-params", "1,2", "-trials", "0"},
		{"-sweep", "lambda/natural-dist", "-params", "1", "-trials", "0"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		if strings.Contains(stdout.String(), "NaN") {
			t.Errorf("%v: output contains NaN:\n%s", args, stdout.String())
		}
	}
}

// TestRelayChainFixtureShapes keeps testdata/relay-chain.crn (the CI
// hybrid smoke sweep's model) honest: with the racers protected, the
// hybrid partition finds exactly one relay, on a, gated by one catalytic
// dependent, while the conversion chain p → q → ∅ belongs to no relay and
// races exactly. In trials of the race both dependents burn their fuel and
// block before the race is decided, so the relay is propagated
// analytically beside a chain that steps exactly.
func TestRelayChainFixtureShapes(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "relay-chain.crn"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := chem.ParseNetworkString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := net.MustSpecies("o1"), net.MustSpecies("o2")
	gen := rng.NewStream(7, 0)
	h := sim.NewHybrid(net, []chem.Species{o1, o2}, gen)
	relays := h.Partition().Relays
	for _, r := range relays {
		for _, name := range []string{"p", "q"} {
			if r.A == net.MustSpecies(name) {
				t.Errorf("chain species %s forms a relay: %+v", name, r)
			}
		}
	}
	if len(relays) != 1 || relays[0].A != net.MustSpecies("a") {
		t.Fatalf("relays = %+v, want exactly one, on a", relays)
	}
	if deps := relays[0].Dependents; len(deps) != 1 {
		t.Errorf("relay on a has dependents %v, want one", deps)
	}
	x, z := net.MustSpecies("x"), net.MustSpecies("z")
	ths := []sim.SpeciesThreshold{{Species: o1, Count: 6}, {Species: o2, Count: 6}}
	const trials = 50
	blocked := 0
	for i := 0; i < trials; i++ {
		gen.Reseed(7, uint64(i))
		h.Reset(net.InitialState(), 0)
		res := sim.RunThresholdRace(h, ths, 1_000_000)
		if res.Reason != sim.StopPredicate {
			t.Fatalf("trial %d: race ended with %v", i, res.Reason)
		}
		if st := h.State(); st[x] < 2 && st[z] < 2 && h.Propagations() > 0 {
			blocked++
		}
	}
	if blocked < trials/2 {
		t.Errorf("both dependents blocked and the relay propagated in %d of %d trials, want most", blocked, trials)
	}
	t.Logf("both dependents blocked before the race was decided in %d of %d trials", blocked, trials)
}
