package scenario

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
	"stochsynth/internal/synth"
)

// The stream manifest pins the trial streams of every registered sweep,
// of every scenario network on every engine kind, and of the paper's
// 12-outcome stochastic module as a wire network: one line per stream
// with the SHA-256 of its encoded 1-shard ShardResult. Hashing the
// encoded result covers tally, numeric and dist sweeps alike. A change
// that moves a stream shows as a one-line diff; rewrite the file with
//
//	go test ./internal/scenario -run StreamManifest -update
//
// only when the move is intended, and name each moved line with its
// reason in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/streams.txt")

const manifestPath = "testdata/streams.txt"

// manifestSeed is the seed of the registered-sweep and module lines
// (sweepd's default -seed).
const manifestSeed = 2007

// manifestGrid is the grid a registered sweep is pinned on: lambda at
// MOI 1, 4 and 10, Figure 3 at γ 1, 10 and 100, a scenario on its own
// grid.
func manifestGrid(t *testing.T, name string) []float64 {
	t.Helper()
	switch {
	case strings.HasPrefix(name, "lambda/"):
		return []float64{1, 4, 10}
	case strings.HasPrefix(name, "synth/"):
		return []float64{1, 10, 100}
	case strings.HasPrefix(name, "scenario/"):
		s, ok := ByName(strings.TrimPrefix(name, "scenario/"))
		if !ok {
			t.Fatalf("registered sweep %q names no scenario", name)
		}
		return s.Grid
	}
	t.Fatalf("registered sweep %q has no manifest grid", name)
	return nil
}

// registeredKind labels the engine a registered sweep fixes: the builtin
// and scenario sweeps run the optimized default unless their id names the
// hybrid.
func registeredKind(name string) sim.EngineKind {
	if strings.Contains(name, "hybrid") {
		return sim.EngineHybrid
	}
	return sim.EngineOptimizedDirect
}

// moduleSpec is the paper's stochastic module (§2.1) at n outcomes of
// weight 10 and γ = 100 as a wire network, its endpoint observable on
// o1: at 12 outcomes it compiles to 234 channels, past
// chem.BlockThreshold.
func moduleSpec(t *testing.T, n int, kind sim.EngineKind) *shard.NetworkSpec {
	t.Helper()
	outcomes := make([]synth.Outcome, n)
	for i := range outcomes {
		outcomes[i] = synth.Outcome{Weight: 10}
	}
	mod, err := synth.StochasticSpec{Outcomes: outcomes, Gamma: 100}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &shard.NetworkSpec{
		CRN:        string(chem.AppendCRN(nil, mod.Net)),
		Engine:     string(kind),
		Observable: shard.ObservableSpec{Kind: shard.ObsEndpoint, SpeciesA: "o1", CountA: 1},
		Hist:       &mc.HistConfig{Lo: 0, Width: 50, Bins: 21},
	}
}

// networkSweep is the dist sweep of a wire network under its content id.
func networkSweep(t *testing.T, ns *shard.NetworkSpec, grid []float64, trials int, seed uint64) shard.SweepSpec {
	t.Helper()
	id, err := ns.SweepID()
	if err != nil {
		t.Fatal(err)
	}
	return shard.SweepSpec{
		Sweep: id, Grid: grid, Trials: trials, Seed: seed,
		Outcomes: shard.NetworkOutcomes, Dist: true, Network: ns,
	}
}

// manifestLine runs spec as one shard and formats its manifest line.
func manifestLine(t *testing.T, reg *shard.Registry, name string, kind sim.EngineKind, spec shard.SweepSpec) string {
	t.Helper()
	res, err := shard.Run(spec.Shard(0, spec.Trials), reg)
	if err != nil {
		t.Fatalf("%s %s: %v", name, kind, err)
	}
	grid := make([]string, len(spec.Grid))
	for i, g := range spec.Grid {
		grid[i] = strconv.FormatFloat(g, 'g', -1, 64)
	}
	return fmt.Sprintf("%s %s grid=%s trials=%d seed=%d sha256=%x",
		name, kind, strings.Join(grid, ","), spec.Trials, spec.Seed, sha256.Sum256(encodeResult(t, res)))
}

// manifest computes every line of the stream manifest, in file order.
func manifest(t *testing.T) []string {
	reg := shard.Builtin()
	Register(reg)
	var lines []string
	for _, name := range reg.Names() {
		f, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := shard.SweepSpec{
			Sweep: name, Grid: manifestGrid(t, name), Trials: 200, Seed: manifestSeed,
			Outcomes: f.Outcomes, Numeric: f.Numeric, Dist: f.Dist,
		}
		lines = append(lines, manifestLine(t, reg, name, registeredKind(name), spec))
	}
	for _, s := range All() {
		for _, kind := range sim.EngineKinds() {
			ns := s.NetworkSpec()
			ns.Engine = string(kind)
			lines = append(lines, manifestLine(t, reg, "network/"+s.Name, kind, networkSweep(t, ns, s.Grid, 100, s.Seed)))
		}
	}
	for _, kind := range sim.EngineKinds() {
		spec := networkSweep(t, moduleSpec(t, 12, kind), []float64{0}, 200, manifestSeed)
		lines = append(lines, manifestLine(t, reg, "network/module-n12", kind, spec))
	}
	return lines
}

// TestStreamManifest recomputes every stream of testdata/streams.txt and
// requires each line's hash to match, naming every stream that moved.
func TestStreamManifest(t *testing.T) {
	got := manifest(t)
	if *update {
		header := "# Stream manifest: name, engine kind, grid, trials, seed and the SHA-256 of the\n" +
			"# encoded 1-shard ShardResult. Regenerate with\n" +
			"#   go test ./internal/scenario -run StreamManifest -update\n"
		if err := os.WriteFile(manifestPath, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("missing stream manifest (run with -update): %v", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	// key is a line's stream identity: its name and engine kind.
	key := func(line string) string {
		name, rest, _ := strings.Cut(line, " ")
		kind, _, _ := strings.Cut(rest, " ")
		return name + " " + kind
	}
	pinned := make(map[string]string, len(want))
	for _, line := range want {
		pinned[key(line)] = line
	}
	for _, line := range got {
		k := key(line)
		switch w, ok := pinned[k]; {
		case !ok:
			t.Errorf("stream %s is not in the manifest:\n  got  %s", k, line)
		case w != line:
			t.Errorf("stream %s moved:\n  got  %s\n  want %s", k, line, w)
		}
		delete(pinned, k)
	}
	for _, line := range want {
		if _, ok := pinned[key(line)]; ok {
			t.Errorf("stream %s is in the manifest but no longer runs", key(line))
		}
	}
}
