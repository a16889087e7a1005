package main

import (
	"bytes"
	"errors"
	"os"
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

// buildExperiments compiles the command once into a test temp dir.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	return bin
}

// TestEngineSelectionFailsFast: a bad -engine must be rejected before any
// experiment runs, listing every selectable kind; so must a trial count
// no Monte Carlo runner accepts, and each flag the one chosen experiment
// does not read: modules runs Direct by design, and fig4 runs no trials.
// Both used to print their default output.
func TestEngineSelectionFailsFast(t *testing.T) {
	bin := buildExperiments(t)
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-engine", "bogus"},
			[]string{"unknown engine", "direct", "optimized", "first-reaction", "hybrid"}},
		{[]string{"-exp", "fig3", "-engine", "next-reaction"},
			[]string{"unknown engine", "direct", "optimized", "first-reaction", "hybrid"}},
		{[]string{"-exp", "fig3", "-trials", "0"},
			[]string{"-trials 0", "positive"}},
		{[]string{"-exp", "modules", "-engine", "first-reaction", "-trials", "20"},
			[]string{"experiments: -engine does not apply with -exp modules"}},
		{[]string{"-exp", "fig4", "-engine", "hybrid", "-trials", "5", "-seed", "3"},
			[]string{"experiments: -engine does not apply with -exp fig4", "experiments: -seed does not apply with -exp fig4",
				"experiments: -trials does not apply with -exp fig4"}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: want exit code 2, got %v", tc.args, err)
			continue
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

// TestValidateEngineSelection: every kind in sim.EngineKinds() is a valid
// selection for each experiment that races a stochastic module (fig3, ex1,
// ex2) and runs to exit 0. Direct and optimized draw the same randomness
// over one kernel, so their tables (timing line aside) are identical;
// first-reaction draws differently, so its table differs. ex1 and ex2
// used to print the default table whatever -engine said.
func TestValidateEngineSelection(t *testing.T) {
	bin := buildExperiments(t)
	for _, exp := range []string{"fig3", "ex1", "ex2"} {
		tables := map[sim.EngineKind]string{}
		for _, kind := range sim.EngineKinds() {
			out, err := exec.Command(bin, "-exp", exp, "-trials", "200", "-seed", "7", "-engine", string(kind)).Output()
			if err != nil {
				t.Fatalf("-exp %s -engine %s: %v", exp, kind, err)
			}
			tables[kind] = untimed(out)
		}
		if tables[sim.EngineDirect] != tables[sim.EngineOptimizedDirect] {
			t.Errorf("-exp %s: direct and optimized tables differ:\n%s\n---\n%s",
				exp, tables[sim.EngineDirect], tables[sim.EngineOptimizedDirect])
		}
		if tables[sim.EngineFirstReaction] == tables[sim.EngineDirect] {
			t.Errorf("-exp %s: first-reaction table equals direct's: -engine was ignored", exp)
		}
	}
}

// TestTimingLineCountsTrialsRun: each experiment's timing line reports the
// trials it ran per point, not the -trials request. Modules runs at most
// 500 per input and its power rows a quarter of that plus one, pipeline
// at most 5000, and fig4 runs none.
func TestTimingLineCountsTrialsRun(t *testing.T) {
	ran := map[string]func(int) string{}
	for _, e := range experiments {
		ran[e.name] = e.ran
	}
	for _, tc := range []struct {
		exp  string
		n    int
		want string
	}{
		{"fig3", 20000, "20000 trials/point"},
		{"fig4", 20000, "0 trials/point"},
		{"ex2", 300, "300 trials/point"},
		{"modules", 20000, "500 trials/point; power rows 126 trials/point"},
		{"modules", 40, "40 trials/point; power rows 11 trials/point"},
		{"modules", 1, "1 trials/point"},
		{"pipeline", 6000, "5000 trials/point"},
		{"pipeline", 60, "60 trials/point"},
	} {
		if got := ran[tc.exp](tc.n); got != tc.want {
			t.Errorf("-exp %s -trials %d: timing line reports %q, want %q", tc.exp, tc.n, got, tc.want)
		}
	}
}

// TestModulesTimingLine: `-exp modules -trials 20000` runs 500 trials per
// input and 126 on the power rows, and its timing line says so. It used
// to report 20000.
func TestModulesTimingLine(t *testing.T) {
	bin := buildExperiments(t)
	out, err := exec.Command(bin, "-exp", "modules", "-trials", "20000").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), ", 500 trials/point; power rows 126 trials/point)\n") {
		t.Errorf("timing line does not report the trials run:\n%s", out)
	}
}

// untimed drops the "(…, N trials/point)" timing line from an
// experiment's output, leaving only what a seed determines.
func untimed(out []byte) string {
	var kept []string
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "trials/point)") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestModulesGolden pins the §2.2.1 module table byte for byte at two
// (trials, seed) settings: every mode, mean and P(exact) cell is a
// function of the seed alone. The goldens are the output of
// `experiments -exp modules -trials T -seed S` with the timing line
// removed (grep -v 'trials/point)').
func TestModulesGolden(t *testing.T) {
	bin := buildExperiments(t)
	for _, tc := range []struct{ trials, seed, golden string }{
		{"300", "5", "modules-trials300-seed5.txt"},
		{"40", "2007", "modules-trials40-seed2007.txt"},
	} {
		out, err := exec.Command(bin, "-exp", "modules", "-trials", tc.trials, "-seed", tc.seed).Output()
		if err != nil {
			t.Fatalf("-trials %s -seed %s: %v", tc.trials, tc.seed, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := untimed(out); got != string(want) {
			t.Errorf("-trials %s -seed %s: table differs from %s:\n%s\n--- want ---\n%s",
				tc.trials, tc.seed, tc.golden, got, want)
		}
	}
}
