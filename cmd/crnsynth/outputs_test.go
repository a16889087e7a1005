package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.txt")

// TestOutputManifest pins every mode's output: each invocation's exit
// code and the SHA-256 of its stdout and stderr are one line of
// testdata/outputs.txt, which -update rewrites.
func TestOutputManifest(t *testing.T) {
	bin := buildCrnsynth(t)
	var got strings.Builder
	for _, args := range [][]string{
		{"-dist", "30,40,30"},
		{"-dist", "1,2", "-gamma", "10", "-crn"},
		{"-lambda", "-crn"},
		{"-response", "20,4,8"},
		{"-module", "log2"},
		{"-poly", "1,2"},
	} {
		stdout, stderr, code := run(t, bin, args...)
		fmt.Fprintf(&got, "%s\t%d\t%x\t%x\n", strings.Join(args, " "), code, sha256.Sum256(stdout), sha256.Sum256(stderr))
	}
	checkManifest(t, got.String())
}

// run execs bin and returns its stdout, stderr and exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	var exitErr *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("%v: %v", args, err)
	}
	return o.Bytes(), e.Bytes(), cmd.ProcessState.ExitCode()
}

// checkManifest compares got with testdata/outputs.txt line by line,
// naming each invocation whose line moved, or rewrites the file under
// -update.
func checkManifest(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "outputs.txt")
	got = "# args, exit code, SHA-256 of stdout, SHA-256 of stderr; go test -run OutputManifest -update rewrites this file\n" + got
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, lines := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the run printed %d (rerun with -update after an intended change)", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("moved: %s\nwant:  %s", lines[i], want[i])
		}
	}
}
