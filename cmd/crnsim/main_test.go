package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

// buildCrnsim compiles the command into dir and writes the flip network
// (a = 200, a -> b @ 1, b -> a @ 0.5) beside it.
func buildCrnsim(t *testing.T) (bin, flip string) {
	t.Helper()
	dir := t.TempDir()
	bin = filepath.Join(dir, "crnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building crnsim: %v\n%s", err, out)
	}
	flip = filepath.Join(dir, "flip.crn")
	if err := os.WriteFile(flip, []byte("a = 200\nb = 0\na -> b @ 1\nb -> a @ 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return bin, flip
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
