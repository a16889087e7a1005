package main

import (
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
