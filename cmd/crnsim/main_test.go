package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

func TestEngineFactory(t *testing.T) {
	net := chem.MustParseNetwork(`
a = 3
a -> b @ 1
`)
	for _, kind := range sim.EngineKinds() {
		mk, err := engineFactory(string(kind), net)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res := sim.Run(mk(rng.New(1)), sim.RunOptions{}); res.Steps != 3 {
			t.Fatalf("%s ran %d steps", kind, res.Steps)
		}
	}
	// Abbreviations and retired kinds are refused.
	for _, name := range []string{"warp", "", "first", "next", "next-reaction"} {
		if _, err := engineFactory(name, net); err == nil {
			t.Errorf("engine %q accepted", name)
		}
	}
}

func TestSelectSpecies(t *testing.T) {
	net := chem.MustParseNetwork(`a -> b @ 1`)
	all, err := selectSpecies(net, "")
	if err != nil || len(all) != 2 {
		t.Fatalf("all species: %v %v", all, err)
	}
	some, err := selectSpecies(net, " b ")
	if err != nil || len(some) != 1 || net.Name(some[0]) != "b" {
		t.Fatalf("single species: %v %v", some, err)
	}
	if _, err := selectSpecies(net, "ghost"); err == nil {
		t.Fatal("unknown species accepted")
	}
}

func TestProjectCSV(t *testing.T) {
	net := chem.MustParseNetwork(`a -> b @ 1`)
	var tr sim.Trajectory
	tr.Append(0, chem.State{1, 0})
	tr.Append(0.5, chem.State{0, 1})
	b := net.MustSpecies("b")
	out := projectCSV(&tr, net, []chem.Species{b})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "t,b" || lines[2] != "0.5,1" {
		t.Fatalf("csv:\n%s", out)
	}
}

// buildCrnsim compiles the command into a temp dir and returns it with the
// flip network fixture (a = 200, a -> b @ 1, b -> a @ 0.5).
func buildCrnsim(t *testing.T) (bin, flip string) {
	t.Helper()
	bin = filepath.Join(t.TempDir(), "crnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building crnsim: %v\n%s", err, out)
	}
	return bin, filepath.Join("testdata", "flip.crn")
}

// TestMeanRequiresTrials: -mean is an ensemble mode, so without -trials
// it fails naming both flags instead of printing one trajectory.
func TestMeanRequiresTrials(t *testing.T) {
	bin, flip := buildCrnsim(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-mean", "-maxtime", "0.5", flip)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v", err)
	}
	for _, want := range []string{"-mean", "-trials"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %q", stderr.String(), want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("output produced before the failure:\n%s", stdout.String())
	}
}

// TestMeanRefusesMaxSteps: -mean averages whole trajectories up to
// -maxtime, so an explicit -maxsteps fails naming both flags before any
// simulation, instead of being silently ignored. On a = 1, a -> 2 a the
// ignored bound printed a mean near e⁵ where the final-state mode stops
// every trial by 11 copies.
func TestMeanRefusesMaxSteps(t *testing.T) {
	bin, _ := buildCrnsim(t)
	boom := filepath.Join(t.TempDir(), "boom.crn")
	if err := os.WriteFile(boom, []byte("a = 1\na -> 2 a @ 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-trials", "200", "-maxtime", "5", "-maxsteps", "10", "-mean", boom)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v", err)
	}
	for _, want := range []string{"-mean", "-maxsteps"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %q", stderr.String(), want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("output produced before the failure:\n%s", stdout.String())
	}
}

// TestMeanHonoursEngine: the -mean ensemble runs on the -engine kind.
// Direct and optimized draw the same randomness over one kernel, and the
// flip network has no relay, so the hybrid steps as Direct does: the
// three tables are identical. First-reaction draws its randomness
// differently, so its table differs.
func TestMeanHonoursEngine(t *testing.T) {
	bin, flip := buildCrnsim(t)
	tables := map[sim.EngineKind]string{}
	for _, kind := range sim.EngineKinds() {
		out, err := exec.Command(bin, "-engine", string(kind), "-trials", "300", "-maxtime", "2", "-mean", flip).Output()
		if err != nil {
			t.Fatalf("-engine %s: %v", kind, err)
		}
		tables[kind] = string(out)
	}
	for _, kind := range []sim.EngineKind{sim.EngineOptimizedDirect, sim.EngineHybrid} {
		if tables[kind] != tables[sim.EngineDirect] {
			t.Errorf("%s -mean table differs from direct's:\n%s\n---\n%s", kind, tables[kind], tables[sim.EngineDirect])
		}
	}
	if tables[sim.EngineFirstReaction] == tables[sim.EngineDirect] {
		t.Errorf("first-reaction -mean table equals direct's: the ensemble ignored -engine")
	}
}

// TestMaxTimeMustBeFinite: a negative or non-finite -maxtime fails naming
// the flag before anything is simulated, in every mode. An infinite
// -mean bound used to panic with a Go stack, a NaN one never returned
// (no grid time is ever reached), and the trace and final-state modes
// read NaN or a negative bound as "no bound".
func TestMaxTimeMustBeFinite(t *testing.T) {
	bin, flip := buildCrnsim(t)
	for _, args := range [][]string{
		{"-trials", "100", "-maxtime", "inf", "-mean"},
		{"-trials", "100", "-maxtime", "NaN", "-mean"},
		{"-trials", "100", "-maxtime", "-1"},
		{"-trials", "100", "-maxtime", "NaN"},
		{"-maxtime", "-0.5"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, append(args, flip)...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Errorf("%v: want exit code 1, got %v", args, err)
			continue
		}
		if !strings.Contains(stderr.String(), "-maxtime") {
			t.Errorf("%v: stderr %q does not mention -maxtime", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output produced before the failure:\n%s", args, stdout.String())
		}
	}
}

// TestNegativeCountsFail: a negative -maxsteps or -trials fails naming the
// flag before anything is simulated. Both used to run: on a = 1, a -> 2 a
// -maxsteps -1 read as "no event bound" (a mean near 140 where -maxsteps
// 10 stops every trial by 11 copies), and -trials -3 printed one trace.
func TestNegativeCountsFail(t *testing.T) {
	bin, flip := buildCrnsim(t)
	boom := filepath.Join(t.TempDir(), "boom.crn")
	if err := os.WriteFile(boom, []byte("a = 1\na -> 2 a @ 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-maxsteps", []string{"-trials", "200", "-maxtime", "5", "-maxsteps", "-1", boom}},
		{"-maxsteps", []string{"-maxtime", "5", "-maxsteps", "-1", boom}},
		{"-trials", []string{"-trials", "-3", "-maxtime", "0.01", flip}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Errorf("%v: want exit code 1, got %v", tc.args, err)
			continue
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%v: stderr %q does not mention %s", tc.args, stderr.String(), tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output produced before the failure:\n%s", tc.args, stdout.String())
		}
	}
}

// TestFinalStateOnePass: the final-state mode folds every reported
// species from one pass over the trials, so each species' line is the
// line a run reporting that species alone prints at the same seed.
func TestFinalStateOnePass(t *testing.T) {
	bin, flip := buildCrnsim(t)
	run := func(species string) string {
		out, err := exec.Command(bin, "-trials", "300", "-maxtime", "2", "-seed", "5", "-species", species, flip).Output()
		if err != nil {
			t.Fatalf("-species %s: %v", species, err)
		}
		return string(out)
	}
	both, a, b := run("a,b"), run("a"), run("b")
	if both != a+b {
		t.Fatalf("-species a,b printed\n%swant the -species a and -species b lines\n%s", both, a+b)
	}
}
