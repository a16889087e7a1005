package mc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"stochsynth/internal/rng"
)

// recoverTrialPanic converts a panic escaping a trial body into a
// recorded error string (with the original stack), to be re-raised on the
// caller's goroutine after the pool drains. A panic on a worker goroutine
// would kill the whole process unrecoverably — fatal for long-lived
// harnesses like the shard network worker, which must turn one bad trial
// body into an error frame and keep serving.
func recoverTrialPanic(dst *string) {
	if p := recover(); p != nil {
		*dst = fmt.Sprintf("mc: trial body panicked: %v\n%s", p, debug.Stack())
	}
}

// ForEachTrial is the striped worker pool behind every range runner
// (RunRangeWith, RunNumericRangeWith, RunDistRangeWith) and every trial
// loop that keeps its own accumulators, such as sim.EnsembleStats. It
// starts min(cfg.Workers, hi−lo) workers (cfg.Workers 0 means GOMAXPROCS);
// worker w owns the generator rng.NewStream(cfg.Seed, w), builds one
// engine from it, and runs body on the indices lo+w, lo+w+workers, … —
// static striping keeps the index→stream mapping fixed, so every result
// is independent of scheduling. Before each index i the generator is
// repositioned in place (rng.PCG.Reseed) onto the stream (cfg.Seed, i),
// so index i draws exactly what a fresh rng.NewStream(cfg.Seed, i) would.
// body also gets the worker index w, for per-worker accumulators.
// cfg.Trials and cfg.Outcomes are ignored; the range defines the work.
//
// A panic in newEngine or body stops its worker; once the pool drains, the
// first one (in worker order) is re-raised on the caller's goroutine as
// "mc: trial body panicked: …" with the worker's stack.
func ForEachTrial[E any](cfg Config, lo, hi int, newEngine func(gen *rng.PCG) E, body func(w, i int, eng E)) {
	checkRange(lo, hi)
	workers := rangeWorkers(cfg.Workers, hi-lo)
	panics := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer recoverTrialPanic(&panics[w])
			gen := rng.NewStream(cfg.Seed, uint64(w))
			eng := newEngine(gen)
			for i := lo + w; i < hi; i += workers {
				gen.Reseed(cfg.Seed, uint64(i))
				body(w, i, eng)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != "" {
			panic(p)
		}
	}
}

// rangeWorkers resolves the worker count for a range of n trials.
func rangeWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// checkRange panics on a malformed trial range.
func checkRange(lo, hi int) {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("mc: invalid trial range [%d,%d)", lo, hi))
	}
}

// RunWith executes cfg.Trials independent trials with per-worker engine
// reuse: each worker calls newEngine once to build its simulation engine
// (or any other per-worker resource) and then runs its whole stripe of
// trials through classify on that one engine, instead of allocating
// propensity vectors, dependency graphs and state clones on every trial.
//
// The generator handed to newEngine is owned by the worker; before each
// trial it is repositioned in place (rng.PCG.Reseed) onto the stream
// (cfg.Seed, trial index), so results are bit-for-bit identical to building
// a fresh engine per trial with rng.NewStream — and therefore identical
// across worker counts and scheduling.
//
// classify must reinitialise per-trial state itself (typically by calling
// the engine's Reset with the trial's initial state) and return an outcome
// index in [0, cfg.Outcomes) or None. RunWith panics on invalid
// configuration or out-of-range outcomes, like Run.
//
// RunWith is the 1-shard special case of RunRangeWith: it runs the whole
// range [0, cfg.Trials).
func RunWith[E any](cfg Config, newEngine func(gen *rng.PCG) E, classify func(eng E) int) Result {
	if cfg.Trials <= 0 {
		panic("mc: Config.Trials must be positive")
	}
	return RunRangeWith(cfg, 0, cfg.Trials, newEngine, classify)
}

// RunRangeWith executes the trial-index range [lo, hi) of a conceptual
// Monte Carlo run and tallies its outcomes. Randomness for trial i is
// drawn from the stream (cfg.Seed, i) exactly as in RunWith, so the
// tallies of any disjoint partition of [0, n) sum to the tallies of the
// full run bit-for-bit — the primitive behind distributed sweep sharding
// (internal/shard). cfg.Trials is ignored; the range defines the work.
//
// An empty range (lo == hi) is valid and yields zero tallies.
func RunRangeWith[E any](cfg Config, lo, hi int, newEngine func(gen *rng.PCG) E, classify func(eng E) int) Result {
	if cfg.Outcomes <= 0 {
		panic("mc: Config.Outcomes must be positive")
	}
	checkRange(lo, hi)
	res := Result{Counts: make([]int64, cfg.Outcomes), Trials: int64(hi - lo)}
	// One tally row per worker (ForEachTrial starts exactly this many):
	// workers count into their own row, and the rows are summed after the
	// pool drains — integer sums, so the total is partition-independent.
	type tally struct {
		counts []int64
		none   int64
	}
	tallies := make([]tally, rangeWorkers(cfg.Workers, hi-lo))
	for w := range tallies {
		tallies[w].counts = make([]int64, cfg.Outcomes)
	}
	ForEachTrial(cfg, lo, hi, newEngine, func(w, i int, eng E) {
		switch outcome := classify(eng); {
		case outcome == None:
			tallies[w].none++
		case outcome >= 0 && outcome < cfg.Outcomes:
			tallies[w].counts[outcome]++
		default:
			panic(fmt.Sprintf("mc: classifier returned %d for trial %d, want [0,%d) or None",
				outcome, i, cfg.Outcomes))
		}
	})
	for _, t := range tallies {
		for i, c := range t.counts {
			res.Counts[i] += c
		}
		res.None += t.none
	}
	return res
}

// RunNumericWith is RunWith for numeric trials: per-worker engine reuse
// with the same trial→stream mapping as RunNumeric. cfg.Outcomes is
// ignored. The Summary is derived from the canonical moment tree (see
// Moments), so it is bit-for-bit identical to merging the moments of any
// sharded partition of the same run.
func RunNumericWith[E any](cfg Config, newEngine func(gen *rng.PCG) E, measure func(eng E) float64) Summary {
	if cfg.Trials <= 0 {
		panic("mc: Config.Trials must be positive")
	}
	return RunNumericRangeWith(cfg, 0, cfg.Trials, newEngine, measure).Summary()
}

// RunNumericRangeWith executes the trial-index range [lo, hi) of a
// conceptual numeric run and returns its canonical moment forest. Trial i
// draws from the stream (cfg.Seed, i), so the forests of any disjoint
// partition of [0, n) merge (MergeMoments) to the forest — and Summary —
// of the full run bit-for-bit. cfg.Trials and cfg.Outcomes are ignored.
func RunNumericRangeWith[E any](cfg Config, lo, hi int, newEngine func(gen *rng.PCG) E, measure func(eng E) float64) Moments {
	checkRange(lo, hi)
	if lo == hi {
		return nil
	}
	values := make([]float64, hi-lo)
	ForEachTrial(cfg, lo, hi, newEngine, func(_, i int, eng E) {
		values[i-lo] = measure(eng)
	})
	return NewMoments(lo, values)
}
