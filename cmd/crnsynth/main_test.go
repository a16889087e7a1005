package main

import (
	"os/exec"
	"path/filepath"
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

// buildCrnsynth compiles the command into a temp dir.
func buildCrnsynth(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "crnsynth")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building crnsynth: %v\n%s", err, out)
	}
	return bin
}
