package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at 1/100 scale through both passes with
// every check on, and requires each metric BENCHMARK.json declares to be
// printed for each workload with its declared unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}

	var stdout, stderr bytes.Buffer
	cfg := config{workloads: workloads, seed: 3, trace: 2, scale: 0.01, workdir: t.TempDir()}
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	units := map[string]string{} // "workload metric" → unit
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("malformed metric line %q", line)
		}
		units[f[0]+" "+f[1]] = f[3]
	}
	var summary struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the summary object: %v", err)
	}
	if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 {
		t.Errorf("summary correct=%v attempted=%d failed=%d", summary.Correct, summary.Attempted, summary.Failed)
	}
	for _, w := range workloads {
		for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
			if got, ok := units[w.name+" "+m.Name]; !ok {
				t.Errorf("%s: metric %s not printed", w.name, m.Name)
			} else if got != m.Unit {
				t.Errorf("%s: metric %s printed in %q, declared in %q", w.name, m.Name, got, m.Unit)
			}
			if s, ok := summary.Metrics[w.name+"/"+m.Name]; !ok || s.Value == nil || s.Unit != m.Unit {
				t.Errorf("%s: metric %s missing from the summary object", w.name, m.Name)
			}
		}
	}
}
