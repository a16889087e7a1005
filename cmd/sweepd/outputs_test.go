package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.txt")

// elapsed matches the wall time that ends the summary line, and progress
// the per-shard progress lines, whose order follows the scheduler.
var (
	elapsed  = regexp.MustCompile(`(?m)^(\d+ shards \(.*\)), .*$`)
	progress = regexp.MustCompile(`(?m)^sweepd: shard .* done \(\d+/\d+\)\n`)
)

// TestOutputManifest pins the output of -list and of registry and model
// sweeps: each invocation's exit code and the SHA-256 of its stdout, the
// summary line's elapsed time stripped, and of its stderr, the progress
// lines stripped, are one line of testdata/outputs.txt, which -update
// rewrites.
func TestOutputManifest(t *testing.T) {
	bin := buildSweepd(t)
	var got strings.Builder
	for _, args := range [][]string{
		{"-list"},
		{"-sweep", "synth/fig3-error", "-params", "1,10", "-trials", "200", "-shards", "3"},
		{"-sweep", "lambda/natural-dist", "-params", "1,4", "-trials", "100"},
		{"-model", "testdata/relay-chain.crn", "-engine", "hybrid", "-obs", "race", "-obs-a", "o1:6", "-obs-b", "o2:6",
			"-param-species", "x", "-params", "17", "-trials", "100"},
	} {
		stdout, stderr, code := run(t, bin, args...)
		stdout, stderr = elapsed.ReplaceAll(stdout, []byte("$1")), progress.ReplaceAll(stderr, nil)
		fmt.Fprintf(&got, "%s\t%d\t%x\t%x\n", strings.Join(args, " "), code, sha256.Sum256(stdout), sha256.Sum256(stderr))
	}
	checkManifest(t, got.String())
}

// run execs bin and returns its stdout, stderr and exit code. A run past
// 10 s is killed (a worker that serves when it should refuse) and reads
// as exit code -1.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var o, e bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
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
