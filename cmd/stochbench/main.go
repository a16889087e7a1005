// Command stochbench is the repository's end-to-end and per-layer
// benchmark. It generates four sweep workloads from a seed, drives them
// through the entry points cmd/sweepd uses (shard.Coordinate and
// shard.ResumeCoordinate over a LocalRunner or a loopback RemotePool),
// checks every result, and prints each metric as
//
//	workload metric value unit [note]
//
// followed, as the last line, by one JSON object with the fields correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and how to compare two commits.
//
// Usage:
//
//	go run . -seed 1 [-workload NAME] [-seconds N] [-trace 0|1|2] [-out FILE] [-trace-out FILE]
//
// -trace 0 runs the untraced end-to-end pass, 1 the traced per-layer pass,
// 2 (the default) both. -seconds is the measuring time per pass and
// workload. The exit status is 1 when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

type config struct {
	workloads []*workload
	seed      uint64
	seconds   float64
	trace     int
	// scale multiplies every sweep's trial count; the smoke test shrinks
	// the run with it.
	scale    float64
	workdir  string
	out      string
	traceOut string
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all)")
		seed     = flag.Uint64("seed", 1, "benchmark seed; every sweep's seed derives from it")
		seconds  = flag.Float64("seconds", 20, "measuring time per pass and workload")
		trace    = flag.Int("trace", 2, "0: untraced end-to-end pass, 1: traced per-layer pass, 2: both")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans as JSON to this file")
		workdir  = flag.String("workdir", "", "directory for journal files (default: the system temp directory)")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, scale: 1, workdir: *workdir, out: *out, traceOut: *traceOut}
	if cfg.trace < 0 || cfg.trace > 2 {
		fmt.Fprintln(os.Stderr, "stochbench: -trace must be 0, 1 or 2")
		os.Exit(2)
	}
	cfg.workloads = workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(os.Stderr, "stochbench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
		cfg.workloads = []*workload{w}
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// metric is one printed number. Extra metrics are printed and reported in
// -out but are not declared in BENCHMARK.json.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
	extra bool
}

// passResult is what one pass over one workload measured and checked.
type passResult struct {
	Metrics        []metric  `json:"metrics"`
	Checks         int       `json:"checks"`
	Failures       []string  `json:"failures,omitempty"`
	Attempts       int64     `json:"shard_attempts"`
	FailedAttempts int64     `json:"failed_shard_attempts"`
	Info           []string  `json:"info,omitempty"`
	SelfTime       []selfRow `json:"self_time,omitempty"`
	spans          []span
}

func (p *passResult) add(name string, v float64, unit, note string) {
	p.Metrics = append(p.Metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (p *passResult) addExtra(name string, v float64, unit, note string) {
	p.Metrics = append(p.Metrics, metric{Name: name, Value: v, Unit: unit, Note: note, extra: true})
}

func (p *passResult) check(failures []string, checks int) {
	p.Checks += checks
	p.Failures = append(p.Failures, failures...)
}

func (p *passResult) countAttempts(e *env) {
	p.Attempts += e.attempts.Load()
	p.FailedAttempts += e.failures.Load()
}

func (p *passResult) failFrac() float64 {
	return ratioF(float64(p.FailedAttempts+int64(len(p.Failures))), float64(p.Attempts+int64(p.Checks)))
}

type workloadReport struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Passes   []passEntry `json:"passes"`
}

type passEntry struct {
	Pass string `json:"pass"`
	passResult
}

type report struct {
	Env       envInfo          `json:"env"`
	Seed      uint64           `json:"seed"`
	Workloads []workloadReport `json:"workloads"`
	Correct   bool             `json:"correct"`
}

// run executes the configured passes and returns the exit status.
func run(cfg config, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if cfg.workdir == "" {
		cfg.workdir = os.TempDir()
	}
	env := probeEnv(cfg.workdir)
	env.print(stdout, stderr)

	rep := report{Env: env, Seed: cfg.seed, Correct: true}
	var summary struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]result `json:"metrics"`
	}
	summary.Correct = true
	summary.Metrics = map[string]result{}
	type traceDoc struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var traces struct {
		Env       *envInfo   `json:"env"`
		Workloads []traceDoc `json:"workloads"`
	}
	traces.Env = &rep.Env

	for _, w := range cfg.workloads {
		wr := workloadReport{Workload: w.name, Why: w.why}
		for _, pass := range []struct {
			name string
			run  func(*workload, config) (passResult, error)
			on   bool
		}{
			{"e2e", e2ePass, cfg.trace != 1},
			{"traced", tracedPass, cfg.trace != 0},
		} {
			if !pass.on {
				continue
			}
			pr, err := pass.run(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "stochbench: %s %s pass: %v\n", w.name, pass.name, err)
				return 1
			}
			for _, m := range pr.Metrics {
				note := ""
				if m.Note != "" {
					note = "  # " + m.Note
				}
				fmt.Fprintf(stdout, "%s %s %v %s%s\n", w.name, m.Name, m.Value, m.Unit, note)
				if !m.extra {
					key := m.Name
					if len(cfg.workloads) > 1 {
						key = w.name + "/" + m.Name
					}
					summary.Metrics[key] = result{Value: m.Value, Unit: m.Unit}
				}
			}
			for _, line := range pr.Info {
				fmt.Fprintf(stdout, "# %s: %s\n", w.name, line)
			}
			if pr.SelfTime != nil {
				printSelfTable(stdout, w.name, pr.SelfTime)
				traces.Workloads = append(traces.Workloads, traceDoc{Workload: w.name, Spans: pr.spans})
			}
			for _, f := range pr.Failures {
				fmt.Fprintf(stderr, "stochbench: CHECK FAILED: %s\n", f)
			}
			summary.Attempted += pr.Attempts + int64(pr.Checks)
			summary.Failed += pr.FailedAttempts + int64(len(pr.Failures))
			if len(pr.Failures) > 0 {
				summary.Correct, rep.Correct = false, false
			}
			wr.Passes = append(wr.Passes, passEntry{Pass: pass.name, passResult: pr})
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.Env.finish(stdout, stderr)

	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			fmt.Fprintln(stderr, "stochbench:", err)
			return 1
		}
	}
	if cfg.traceOut != "" {
		if err := writeJSON(cfg.traceOut, traces); err != nil {
			fmt.Fprintln(stderr, "stochbench:", err)
			return 1
		}
	}
	// encoding/json writes map keys sorted, so the summary line is
	// deterministic.
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "stochbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

type result struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
