package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"stochsynth/internal/sim"
)

// Smoke tests: every experiment function must run to completion on tiny
// trial counts (output goes to stdout; correctness of the underlying
// numbers is covered by the library tests).

func TestFigure3Smoke(t *testing.T)  { figure3(60, 1) }
func TestFigure4Smoke(t *testing.T)  { figure4(0, 0) }
func TestExample1Smoke(t *testing.T) { example1(60, 1) }
func TestExample2Smoke(t *testing.T) { example2(60, 1) }
func TestModulesSmoke(t *testing.T)  { modules(20, 1) }

func TestFigure5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 smoke is ~seconds")
	}
	figure5(40, 1)
}

func TestPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke is ~seconds")
	}
	pipeline(60, 1)
}

// TestEngineSelectionFailsFast: a bad -engine must be rejected before any
// experiment runs — unknown values list every selectable kind, and kinds
// without a registered Figure 3 sweep are refused for fig3 runs instead of
// silently substituting the default mid-run.
func TestEngineSelectionFailsFast(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-engine", "bogus"},
			[]string{"unknown engine", "direct", "optimized", "first-reaction", "hybrid"}},
		{[]string{"-exp", "fig3", "-engine", "direct"},
			[]string{"no registered Figure 3 sweep", "optimized", "hybrid"}},
		{[]string{"-exp", "fig3", "-engine", "next-reaction"},
			[]string{"unknown engine", "direct", "optimized", "first-reaction", "hybrid"}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Fatalf("%v: want exit code 2, got %v", tc.args, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr.String(), want)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: experiment output produced before the failure:\n%s", tc.args, stdout.String())
		}
	}
}

// TestValidateEngineSelection covers the in-process validation matrix,
// including the kinds that must keep working.
func TestValidateEngineSelection(t *testing.T) {
	for _, ok := range []struct {
		exp  string
		kind sim.EngineKind
	}{
		{"fig3", ""}, {"fig3", sim.EngineOptimizedDirect}, {"fig3", sim.EngineHybrid},
		{"all", sim.EngineHybrid}, {"all", sim.EngineDirect},
		{"fig5", sim.EngineDirect}, {"ex1", sim.EngineFirstReaction},
	} {
		if err := validateEngineSelection(ok.exp, ok.kind); err != nil {
			t.Errorf("exp %q engine %q: unexpected rejection: %v", ok.exp, ok.kind, err)
		}
	}
	for _, bad := range []struct {
		exp  string
		kind sim.EngineKind
	}{
		{"fig3", sim.EngineDirect}, {"fig3", sim.EngineFirstReaction},
	} {
		if err := validateEngineSelection(bad.exp, bad.kind); err == nil {
			t.Errorf("exp %q engine %q: expected rejection", bad.exp, bad.kind)
		}
	}
}
