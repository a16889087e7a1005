package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/shard"
)

// runLocal coordinates the sweep in-process over n shards. The registry
// is empty: network sweeps carry their model, so nothing needs to be
// registered.
func runLocal(t *testing.T, spec shard.SweepSpec, shards int) shard.ShardResult {
	t.Helper()
	res, err := shard.Coordinate(spec, shards, shard.LocalRunner(shard.NewRegistry()), shard.Options{})
	if err != nil {
		t.Fatalf("coordinate (%d shards): %v", shards, err)
	}
	return res
}

func mustSweepSpec(t *testing.T, s *Scenario) shard.SweepSpec {
	t.Helper()
	spec, err := s.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// protectedSpecies resolves the observable species of a scenario, the
// set the hybrid partition must keep exact.
func protectedSpecies(t *testing.T, net *chem.Network, s *Scenario) []chem.Species {
	t.Helper()
	var out []chem.Species
	for _, name := range []string{s.Observable.SpeciesA, s.Observable.SpeciesB, s.Observable.Value} {
		if name != "" {
			out = append(out, net.MustSpecies(name))
		}
	}
	return out
}

func encodeResult(t *testing.T, res shard.ShardResult) []byte {
	t.Helper()
	raw, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestScenarioConformance holds every scenario in the library to its
// contract: the full sweep runs end-to-end from the serialized network
// text, sharded merges are bitwise identical to the single-shard run,
// the registry-served factory draws the same trial streams as the
// wire-submitted network, the statistical pins hold, and the hybrid
// characterisation matches what chem.NewPartition actually finds.
func TestScenarioConformance(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			spec := mustSweepSpec(t, s)
			one := runLocal(t, spec, 1)
			multi := runLocal(t, spec, 5)
			if !bytes.Equal(encodeResult(t, one), encodeResult(t, multi)) {
				t.Error("5-shard merge is not bitwise identical to the 1-shard run")
			}

			for i, pt := range one.Points {
				pin := s.Pins[i]
				if pt.Dist == nil {
					t.Fatalf("point %d has no distribution summary", i)
				}
				if n := pt.Dist.FPT.N(); n != int64(s.Trials) {
					t.Errorf("point %d: %d of %d trials classified", i, n, s.Trials)
				}
				p0 := pt.Dist.FPT.Proportion(0).Estimate()
				if p0 < pin.P0-pin.P0Tol || p0 > pin.P0+pin.P0Tol {
					t.Errorf("point %d: P0 = %.4f outside pin %.3f ± %.3f", i, p0, pin.P0, pin.P0Tol)
				}
				mean := pt.Dist.Moments.Summary().Mean
				if mean < pin.Mean-pin.MeanTol || mean > pin.Mean+pin.MeanTol {
					t.Errorf("point %d: mean = %.3f outside pin %.2f ± %.2f", i, mean, pin.Mean, pin.MeanTol)
				}
			}

			net, err := chem.ParseNetworkString(s.CRN)
			if err != nil {
				t.Fatal(err)
			}
			part := chem.NewPartition(net, protectedSpecies(t, net, s))
			hybrid := false
			for _, f := range part.FastEligible {
				hybrid = hybrid || f
			}
			if hybrid != s.Hybrid {
				t.Errorf("partition finds fast-eligible = %v, scenario characterises Hybrid = %v", hybrid, s.Hybrid)
			}
		})
	}
}

// TestScenarioRegistryMatchesWire runs each scenario both ways a worker
// can serve it — by registered name and by wire-submitted network — and
// requires identical per-point tallies: both roads must build the same
// factory and draw the same streams.
func TestScenarioRegistryMatchesWire(t *testing.T) {
	reg := shard.NewRegistry()
	Register(reg)
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			wireSpec := mustSweepSpec(t, s)
			wire := runLocal(t, wireSpec, 3)

			regSpec := wireSpec
			regSpec.Sweep = s.RegistryName()
			regSpec.Network = nil
			byName, err := shard.Coordinate(regSpec, 3, shard.LocalRunner(reg), shard.Options{})
			if err != nil {
				t.Fatalf("registry run: %v", err)
			}

			wirePts, err := json.Marshal(wire.Points)
			if err != nil {
				t.Fatal(err)
			}
			regPts, err := json.Marshal(byName.Points)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wirePts, regPts) {
				t.Error("registry-served sweep differs from wire-submitted network sweep")
			}
		})
	}
}

// TestScenarioSweepIDsAreStable pins the content-addressed sweep ids of
// the library. A diff here means the canonical serialization, the hash
// recipe, or a scenario's model changed — all of which fork the sweep
// identity that journals and cross-coordinator merges key on.
func TestScenarioSweepIDsAreStable(t *testing.T) {
	want := map[string]string{
		"antithetic":    "crn/123c085236501a36",
		"plesa":         "crn/463c0b4a81fbd71d",
		"repressilator": "crn/f9d6154314e5ac7a",
		"schlogl":       "crn/3bb4988fbf4e1c81",
		"toggle":        "crn/a808222b4740aa0e",
	}
	for _, s := range All() {
		id, err := s.NetworkSpec().SweepID()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if id != want[s.Name] {
			t.Errorf("%s: sweep id %s, pinned %s", s.Name, id, want[s.Name])
		}
	}
}

// TestScenarioJournalResume kills a network sweep partway (every shard
// but the first two fails on the first pass), then resumes it from the
// journal: replayed shards must not rerun, and the completed merge must
// be bitwise identical to the uninterrupted run.
func TestScenarioJournalResume(t *testing.T) {
	s, ok := ByName("toggle")
	if !ok {
		t.Fatal("toggle scenario missing")
	}
	spec := mustSweepSpec(t, s)
	want := runLocal(t, spec, 1)

	path := filepath.Join(t.TempDir(), "sweep.journal")
	local := shard.LocalRunner(shard.NewRegistry())
	// The coordinator dispatches from several goroutines: count atomically.
	var served atomic.Int64
	firstPass := func(sp shard.ShardSpec) (shard.ShardResult, error) {
		if served.Add(1) > 2 {
			return shard.ShardResult{}, fmt.Errorf("injected crash")
		}
		return local(sp)
	}
	if _, err := shard.ResumeCoordinate(spec, path, 4, firstPass, shard.Options{}); err == nil {
		t.Fatal("crashing first pass reported success")
	}

	var replayed atomic.Int64
	secondPass := func(sp shard.ShardSpec) (shard.ShardResult, error) {
		replayed.Add(1)
		return local(sp)
	}
	res, err := shard.ResumeCoordinate(spec, path, 4, secondPass, shard.Options{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if n := replayed.Load(); n == 0 || n >= 4 {
		t.Errorf("resume dispatched %d shards, want the missing ranges only (1..3)", n)
	}
	if !bytes.Equal(encodeResult(t, res), encodeResult(t, want)) {
		t.Error("resumed sweep is not bitwise identical to the uninterrupted run")
	}
}
