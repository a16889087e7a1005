package mc

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"stochsynth/internal/rng"
)

// countingEngine stands in for a simulation engine: construction is the
// expensive step whose amortisation RunWith exists for.
type countingEngine struct {
	gen *rng.PCG
}

var engineBuilds atomic.Int64

func newCountingEngine(gen *rng.PCG) *countingEngine {
	engineBuilds.Add(1)
	return &countingEngine{gen: gen}
}

func TestRunWithBuildsOneEnginePerWorker(t *testing.T) {
	engineBuilds.Store(0)
	const workers = 3
	RunWith(Config{Trials: 100, Outcomes: 2, Seed: 1, Workers: workers},
		newCountingEngine,
		func(e *countingEngine) int { return int(e.gen.Uint64() & 1) })
	if got := engineBuilds.Load(); got != workers {
		t.Fatalf("built %d engines for %d workers, want one each", got, workers)
	}
}

func TestRunWithMatchesRunBitForBit(t *testing.T) {
	// The reused-generator path must reproduce Run's trial→stream mapping
	// exactly: identical counts for an outcome function of the stream.
	trial := func(gen *rng.PCG) int { return int(gen.Uint64() % 3) }
	cfg := Config{Trials: 999, Outcomes: 3, Seed: 42}
	direct := Run(cfg, trial)
	reused := RunWith(cfg,
		func(gen *rng.PCG) *countingEngine { return &countingEngine{gen: gen} },
		func(e *countingEngine) int { return trial(e.gen) })
	for i := range direct.Counts {
		if direct.Counts[i] != reused.Counts[i] {
			t.Fatalf("outcome %d: Run %d, RunWith %d", i, direct.Counts[i], reused.Counts[i])
		}
	}
}

func TestRunWithDeterministicAcrossWorkerCounts(t *testing.T) {
	trial := func(e *countingEngine) int { return int(e.gen.Uint64() & 1) }
	mk := func(gen *rng.PCG) *countingEngine { return &countingEngine{gen: gen} }
	base := RunWith(Config{Trials: 500, Outcomes: 2, Seed: 7, Workers: 1}, mk, trial)
	for _, workers := range []int{2, 5, 16} {
		got := RunWith(Config{Trials: 500, Outcomes: 2, Seed: 7, Workers: workers}, mk, trial)
		if got.Counts[0] != base.Counts[0] || got.Counts[1] != base.Counts[1] {
			t.Fatalf("workers=%d: %v, want %v", workers, got, base)
		}
	}
}

func TestRunWithPanicsOnOutOfRangeOutcome(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range outcome did not panic")
		}
	}()
	RunWith(Config{Trials: 10, Outcomes: 2, Seed: 1},
		func(gen *rng.PCG) *countingEngine { return &countingEngine{gen: gen} },
		func(*countingEngine) int { return 5 })
}

func TestRunNumericWithMatchesRunNumeric(t *testing.T) {
	trial := func(gen *rng.PCG) float64 { return gen.Float64() }
	cfg := Config{Trials: 777, Seed: 13}
	a := RunNumeric(cfg, trial)
	b := RunNumericWith(cfg,
		func(gen *rng.PCG) *countingEngine { return &countingEngine{gen: gen} },
		func(e *countingEngine) float64 { return trial(e.gen) })
	if a.Mean != b.Mean || a.Var != b.Var || a.Min != b.Min || a.Max != b.Max {
		t.Fatalf("RunNumericWith diverged: %+v vs %+v", a, b)
	}
}

// TestRangeRunnersShareCore drives the three range runners through the
// striped pool's contract at one and several workers: a panicking trial
// body is re-raised on the caller's goroutine (so it can be recovered
// here at all), out-of-range outcomes panic on the tally and distribution
// runners, and an empty range yields the runner's zero value.
func TestRangeRunnersShareCore(t *testing.T) {
	const lo, hi, bad = 10, 40, 23
	hcfg := HistConfig{Lo: 0, Width: 1, Bins: 4}
	mk := func(gen *rng.PCG) *rng.PCG { return gen }
	runners := []struct {
		name string
		// run executes [from, to) on the runner; body's return value is
		// the trial's outcome (tally, dist) or measurement (numeric).
		run func(cfg Config, from, to int, body func(gen *rng.PCG) int) any
		// zero reports whether res is the runner's empty-range zero value.
		zero func(res any) bool
		// checksOutcome: the runner must panic on out-of-range outcomes.
		checksOutcome bool
	}{
		{
			name: "tally",
			run: func(cfg Config, from, to int, body func(*rng.PCG) int) any {
				return RunRangeWith(cfg, from, to, mk, body)
			},
			zero: func(res any) bool {
				r := res.(Result)
				return r.Trials == 0 && r.None == 0 && r.Counts[0] == 0 && r.Counts[1] == 0
			},
			checksOutcome: true,
		},
		{
			name: "numeric",
			run: func(cfg Config, from, to int, body func(*rng.PCG) int) any {
				return RunNumericRangeWith(cfg, from, to, mk, func(gen *rng.PCG) float64 { return float64(body(gen)) })
			},
			zero: func(res any) bool { return res.(Moments) == nil },
		},
		{
			name: "dist",
			run: func(cfg Config, from, to int, body func(*rng.PCG) int) any {
				return RunDistRangeWith(cfg, hcfg, from, to, mk, func(gen *rng.PCG) Obs {
					o := body(gen)
					return Obs{Value: float64(o), IValue: 1, Outcome: o}
				})
			},
			zero:          func(res any) bool { return res.(DistSummary).Empty() },
			checksOutcome: true,
		},
	}
	// mustPanic runs f and returns the recovered panic message.
	mustPanic := func(t *testing.T, f func()) (msg string) {
		t.Helper()
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("runner did not panic")
			}
			msg = fmt.Sprint(p)
		}()
		f()
		return ""
	}
	for _, r := range runners {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", r.name, workers), func(t *testing.T) {
				cfg := Config{Outcomes: 2, Seed: 5, Workers: workers}
				// The trial index is recoverable from the stream: trial i's
				// generator is positioned exactly as rng.NewStream(Seed, i).
				first := make(map[uint64]int, hi-lo)
				for i := lo; i < hi; i++ {
					first[rng.NewStream(cfg.Seed, uint64(i)).Uint64()] = i
				}
				trialOf := func(gen *rng.PCG) int { return first[gen.Uint64()] }

				msg := mustPanic(t, func() {
					r.run(cfg, lo, hi, func(gen *rng.PCG) int {
						if trialOf(gen) == bad {
							panic("boom at the bad trial")
						}
						return 0
					})
				})
				for _, needle := range []string{"mc: trial body panicked", "boom at the bad trial"} {
					if !strings.Contains(msg, needle) {
						t.Fatalf("re-raised panic lacks %q:\n%s", needle, msg)
					}
				}

				if r.checksOutcome {
					msg := mustPanic(t, func() {
						r.run(cfg, lo, hi, func(gen *rng.PCG) int {
							if trialOf(gen) == bad {
								return cfg.Outcomes
							}
							return None
						})
					})
					if !strings.Contains(msg, fmt.Sprintf("for trial %d", bad)) {
						t.Fatalf("out-of-range outcome panic does not name trial %d:\n%s", bad, msg)
					}
				}

				if res := r.run(cfg, lo, lo, func(*rng.PCG) int { return 0 }); !r.zero(res) {
					t.Fatalf("empty range returned %+v, want the zero value", res)
				}
			})
		}
	}
}
