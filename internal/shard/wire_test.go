package shard

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stochsynth/internal/mc"
)

// The golden fixtures pin the current (version-2) wire encoding byte for
// byte; the retained .v1 fixtures pin that version-1 messages still
// decode. If an intentional format change lands, bump FormatVersion,
// regenerate with
//
//	go test ./internal/shard -run Golden -update
//
// keep the previous version's fixtures for the decode-compat tests, and
// document the change in docs/sharding.md. A failure here without a
// version bump means the encoding drifted silently — that is the bug.
var update = flag.Bool("update", false, "rewrite golden wire-format fixtures")

// goldenSpec and goldenResult are fixed, fully deterministic exemplars of
// the two message kinds (the numeric result exercises moment nodes too).
func goldenSpec() ShardSpec {
	return ShardSpec{
		Version: FormatVersion, Sweep: testTallySweep,
		Grid: []float64{1, 2.5}, Trials: 40, Lo: 10, Hi: 30,
		Seed: 424242, Outcomes: testOutcomes,
	}
}

func goldenResult(t *testing.T) ShardResult {
	t.Helper()
	res, err := Run(goldenSpec(), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func goldenNumericResult(t *testing.T) ShardResult {
	t.Helper()
	spec := ShardSpec{
		Version: FormatVersion, Sweep: testNumericSweep,
		Grid: []float64{0.5}, Trials: 12, Lo: 3, Hi: 12,
		Seed: 7, Numeric: true,
	}
	res, err := Run(spec, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func goldenDistSpec() ShardSpec {
	return ShardSpec{
		Version: FormatVersion, Sweep: testDistSweep,
		Grid: []float64{1, 2.5}, Trials: 24, Lo: 4, Hi: 20,
		Seed: 99, Outcomes: testOutcomes, Dist: true,
	}
}

func goldenDistResult(t *testing.T) ShardResult {
	t.Helper()
	res, err := Run(goldenDistSpec(), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenCRN is a tiny two-species production race, the network golden
// fixtures' payload. Kept deliberately small so the fixture diffs stay
// readable.
const goldenCRN = `# golden fixture: two-species production race
a = 1
b = 1
mkx: a -> a + x @ 1
mky: b -> b + y @ 1
x -> 0 @ 0.1
y -> 0 @ 0.1
`

// goldenNetworkSpec is the fixed exemplar of a v3 network-carrying spec:
// the grid value scales the x-production rate via the "mkx" label.
func goldenNetworkSpec(t *testing.T) ShardSpec {
	t.Helper()
	ns := &NetworkSpec{
		CRN:      goldenCRN,
		MaxSteps: 100_000,
		Observable: ObservableSpec{
			Kind: ObsRace, SpeciesA: "x", CountA: 5, SpeciesB: "y", CountB: 5,
		},
		Param: &ParamSpec{Rate: "mkx"},
	}
	id, err := ns.SweepID()
	if err != nil {
		t.Fatal(err)
	}
	return ShardSpec{
		Version: FormatVersion, Sweep: id,
		Grid: []float64{0.5, 2}, Trials: 16, Lo: 4, Hi: 12,
		Seed: 31, Outcomes: NetworkOutcomes, Network: ns,
	}
}

func goldenNetworkResult(t *testing.T) ShardResult {
	t.Helper()
	res, err := Run(goldenNetworkSpec(t), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkGolden(t *testing.T, name string, encoded []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(encoded, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update after an intentional, version-bumped format change): %v", err)
	}
	if !bytes.Equal(append(encoded, '\n'), want) {
		t.Fatalf("wire encoding of %s drifted without a FormatVersion bump.\ngot:  %s\nwant: %s",
			name, encoded, bytes.TrimSpace(want))
	}
}

func TestGoldenWireFormat(t *testing.T) {
	spec := goldenSpec()
	encSpec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardspec.v3.json", encSpec)

	encRes, err := goldenResult(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardresult.v3.json", encRes)

	encNum, err := goldenNumericResult(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardresult_numeric.v3.json", encNum)

	encDist, err := goldenDistResult(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardresult_dist.v3.json", encDist)

	encDistSpec, err := goldenDistSpec().Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardspec_dist.v3.json", encDistSpec)

	encNetSpec, err := goldenNetworkSpec(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardspec_network.v3.json", encNetSpec)

	encNetRes, err := goldenNetworkResult(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shardresult_network.v3.json", encNetRes)
}

// TestDecodeV1Fixtures pins backward compatibility: the version-1 golden
// fixtures this repository shipped before the v2 bump must keep decoding
// (a coordinator replaying an old journal, or a mixed fleet mid-upgrade).
func TestDecodeV1Fixtures(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "shardspec.v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeSpec(raw)
	if err != nil {
		t.Fatalf("v1 spec no longer decodes: %v", err)
	}
	if spec.Version != 1 || spec.Dist {
		t.Fatalf("v1 spec decoded oddly: %+v", spec)
	}
	for _, name := range []string{
		"shardresult.v1.json", "shardresult_numeric.v1.json", "shardresult_fig3sweep.v1.json",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", name, err)
		}
		if res.Version != 1 || res.Dist {
			t.Fatalf("%s decoded oddly: version=%d dist=%v", name, res.Version, res.Dist)
		}
	}
}

// TestDecodeV2Fixtures pins backward compatibility across the v2→v3
// bump: the version-2 golden fixtures frozen at the bump must keep
// decoding, dist payloads included.
func TestDecodeV2Fixtures(t *testing.T) {
	for _, name := range []string{"shardspec.v2.json", "shardspec_dist.v2.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := DecodeSpec(raw)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", name, err)
		}
		if spec.Version != 2 || spec.Network != nil {
			t.Fatalf("%s decoded oddly: %+v", name, spec)
		}
	}
	for _, name := range []string{
		"shardresult.v2.json", "shardresult_numeric.v2.json",
		"shardresult_dist.v2.json", "shardresult_fig3sweep.v2.json",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", name, err)
		}
		if res.Version != 2 {
			t.Fatalf("%s decoded oddly: version=%d", name, res.Version)
		}
	}
}

// TestV2RejectsNetworkField: a message claiming version 2 must not
// smuggle in the v3 network payload — mixed fleets rely on the version
// gate, not on old builds happening to reject unknown fields.
func TestV2RejectsNetworkField(t *testing.T) {
	spec := goldenNetworkSpec(t)
	spec.Version = 2
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(raw); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v2 spec with network payload not rejected: %v", err)
	}
}

// TestNetworkSpecRoundTrip: a network-carrying spec survives
// encode→decode→encode byte for byte, and its result merges with itself
// disjointly like any registry sweep's.
func TestNetworkSpecRoundTrip(t *testing.T) {
	spec := goldenNetworkSpec(t)
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("network spec round trip not stable:\n%s\n%s", enc, re)
	}
	if !equalNetworkSpec(spec.Network, got.Network) {
		t.Fatal("network payload did not survive the round trip")
	}
}

// TestNetworkSpecRejections pins the resource-limit and identity checks
// of network-carrying specs.
func TestNetworkSpecRejections(t *testing.T) {
	base := func() ShardSpec { return goldenNetworkSpec(t) }
	cases := map[string]struct {
		mutate func(*ShardSpec)
		frag   string
	}{
		"wrong sweep id":   {func(s *ShardSpec) { s.Sweep = "crn/0000000000000000" }, "content id"},
		"named sweep id":   {func(s *ShardSpec) { s.Sweep = "lambda/synthetic" }, "content id"},
		"too many trials":  {func(s *ShardSpec) { s.Trials = MaxNetworkTrials + 1; s.Hi = s.Trials }, "limit"},
		"bad crn":          {func(s *ShardSpec) { s.Network.CRN = "a -> b" }, "crn: line 1"},
		"empty crn":        {func(s *ShardSpec) { s.Network.CRN = "" }, "empty crn"},
		"unknown engine":   {func(s *ShardSpec) { s.Network.Engine = "quantum" }, "unknown engine"},
		"retired engine":   {func(s *ShardSpec) { s.Network.Engine = "next-reaction" }, "unknown engine"},
		"unknown obs kind": {func(s *ShardSpec) { s.Network.Observable.Kind = "vibes" }, "observable kind"},
		"missing species":  {func(s *ShardSpec) { s.Network.Observable.SpeciesA = "ghost" }, "not in network"},
		"self race":        {func(s *ShardSpec) { s.Network.Observable.SpeciesB = "x" }, "itself"},
		"wrong outcomes":   {func(s *ShardSpec) { s.Outcomes = 3 }, "outcomes"},
		"bad param":        {func(s *ShardSpec) { s.Network.Param = &ParamSpec{Rate: "nolabel"} }, "no reaction"},
		"both params":      {func(s *ShardSpec) { s.Network.Param = &ParamSpec{Species: "x", Rate: "mkx"} }, "both"},
		"stray hist":       {func(s *ShardSpec) { s.Network.Hist = &mc.HistConfig{Lo: 0, Width: 1, Bins: 4} }, "histogram"},
		"oversized steps":  {func(s *ShardSpec) { s.Network.MaxSteps = MaxNetworkSteps + 1 }, "maxSteps"},
		"parse error":      {func(s *ShardSpec) { s.Network.CRN = "x -> y @ -1\n" }, "negative rate"},
		"validation error": {func(s *ShardSpec) { s.Network.CRN = "x = 1\ny = 1\n0 -> 0 @ 1\n" }, "no reactants"},
	}
	for name, c := range cases {
		spec := base()
		c.mutate(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v lacks %q", name, err, c.frag)
		}
	}
}

// TestV1RejectsDistFields: a message claiming version 1 must not smuggle
// in v2 distribution fields.
func TestV1RejectsDistFields(t *testing.T) {
	spec := goldenDistSpec()
	spec.Version = 1
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(raw); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v1 spec with dist flag not rejected: %v", err)
	}
	res := goldenDistResult(t)
	res.Version = 1
	raw, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(raw); err == nil {
		t.Fatal("v1 result with dist payload not rejected")
	}
}

func TestWireRoundTrip(t *testing.T) {
	spec := goldenSpec()
	encSpec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotSpec, err := DecodeSpec(encSpec)
	if err != nil {
		t.Fatal(err)
	}
	reSpec, err := gotSpec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encSpec, reSpec) {
		t.Fatalf("spec round trip not stable:\n%s\n%s", encSpec, reSpec)
	}

	for _, res := range []ShardResult{goldenResult(t), goldenNumericResult(t), goldenDistResult(t)} {
		enc, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		re, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("result round trip not stable (float fields must survive JSON exactly):\n%s\n%s", enc, re)
		}
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	spec := goldenSpec()
	spec.Version = FormatVersion + 1
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(raw); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown spec version not rejected: %v", err)
	}
	res := goldenResult(t)
	res.Version = 0
	raw, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(raw); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown result version not rejected: %v", err)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	enc, err := goldenSpec().Encode()
	if err != nil {
		t.Fatal(err)
	}
	patched := bytes.Replace(enc, []byte(`"sweep"`), []byte(`"surprise":1,"sweep"`), 1)
	if _, err := DecodeSpec(patched); err == nil {
		t.Fatal("unknown field accepted; additions require a FormatVersion bump")
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	enc, err := goldenSpec().Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A trailing newline is how workers terminate the document — fine.
	if _, err := DecodeSpec(append(enc, '\n')); err != nil {
		t.Fatalf("trailing newline rejected: %v", err)
	}
	// Anything else after the document is a corrupted worker stream.
	if _, err := DecodeSpec(append(enc, []byte("{}")...)); err == nil {
		t.Fatal("concatenated second document accepted")
	}
	if _, err := DecodeSpec(append(enc, []byte("\nstray log line")...)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsCorruptNumericMoments(t *testing.T) {
	res := goldenNumericResult(t)
	res.Points[0].Moments = append(mc.Moments(nil), res.Points[0].Moments...)
	res.Points[0].Moments[1].M2 = -50
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(raw); err == nil {
		t.Fatal("negative-M2 moment node accepted; would yield negative variance downstream")
	}
}

func TestDecodeRejectsCorruptResults(t *testing.T) {
	base := goldenResult(t)
	corrupt := func(name string, mutate func(*ShardResult)) {
		r := base
		r.Points = append([]PointTally(nil), base.Points...)
		for i := range r.Points {
			r.Points[i].Counts = append([]int64(nil), base.Points[i].Counts...)
		}
		r.Ranges = append([]Range(nil), base.Ranges...)
		mutate(&r)
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(raw); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("tally/coverage mismatch", func(r *ShardResult) { r.Points[0].Counts[0]++ })
	corrupt("negative count", func(r *ShardResult) {
		r.Points[0].Counts[1] -= r.Points[0].Counts[0] + r.Points[0].Counts[1] + 1
	})
	corrupt("range out of bounds", func(r *ShardResult) { r.Ranges[0].Hi = r.Trials + 1 })
	corrupt("point/grid mismatch", func(r *ShardResult) { r.Points = r.Points[:1] })
	corrupt("param drift", func(r *ShardResult) { r.Points[0].Param++ })
	corrupt("uncoalesced ranges", func(r *ShardResult) {
		r.Ranges = []Range{{Lo: 10, Hi: 20}, {Lo: 20, Hi: 30}}
	})
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*ShardSpec){
		"empty sweep":       func(s *ShardSpec) { s.Sweep = "" },
		"empty grid":        func(s *ShardSpec) { s.Grid = nil },
		"negative trials":   func(s *ShardSpec) { s.Trials, s.Lo, s.Hi = -1, 0, 0 },
		"negative lo":       func(s *ShardSpec) { s.Lo = -1 },
		"inverted range":    func(s *ShardSpec) { s.Lo, s.Hi = 30, 10 },
		"range past total":  func(s *ShardSpec) { s.Hi = s.Trials + 1 },
		"tally no outcomes": func(s *ShardSpec) { s.Outcomes = 0 },
		"numeric+outcomes":  func(s *ShardSpec) { s.Numeric = true },
		"numeric+dist":      func(s *ShardSpec) { s.Numeric, s.Dist, s.Outcomes = true, true, 0 },
		"dist no outcomes":  func(s *ShardSpec) { s.Dist, s.Outcomes = true, 0 },
	}
	for name, mutate := range cases {
		s := goldenSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	// A zero-trial sweep is legal: it dispatches nothing and completes
	// empty (the Trials > 0 requirement was the bug that made zero-trial
	// sweeps permanently incomplete).
	z := goldenSpec()
	z.Trials, z.Lo, z.Hi = 0, 0, 0
	if err := z.Validate(); err != nil {
		t.Errorf("zero-trial spec rejected: %v", err)
	}
}
