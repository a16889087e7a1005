package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("30, 40,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 30 || got[1] != 40 || got[2] != 30 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad integer accepted")
	}
}

func TestBuildModule(t *testing.T) {
	for _, kind := range []string{"exp2", "log2", "power", "isolation"} {
		net, err := buildModule(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if net.NumReactions() == 0 {
			t.Fatalf("%s: empty network", kind)
		}
	}
	if _, err := buildModule("fourier"); err == nil {
		t.Fatal("unknown module accepted")
	}
}

// TestGammaOnlyWithDist: -gamma shapes only the -dist stochastic module,
// so every other mode refuses it by name, exit 2, before any output. The
// module and lambda modes used to accept any -gamma, NaN included.
func TestGammaOnlyWithDist(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "crnsynth")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building crnsynth: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-module", "exp2", "-gamma", "NaN"},
		{"-lambda", "-gamma", "10"},
		{"-poly", "1,2", "-gamma", "1000"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: want exit code 2, got %v", args, err)
			continue
		}
		if !strings.Contains(stderr.String(), "-gamma") {
			t.Errorf("%v: stderr %q does not mention -gamma", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output produced before the failure:\n%s", args, stdout.String())
		}
	}
	if out, err := exec.Command(bin, "-dist", "1,2", "-gamma", "10").Output(); err != nil || len(out) == 0 {
		t.Errorf("-dist 1,2 -gamma 10: err %v, output %q", err, out)
	}
}
