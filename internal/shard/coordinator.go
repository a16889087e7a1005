package shard

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// SweepSpec describes a whole sweep to be sharded: the named trial
// factory, its parameter grid, the per-point trial count, the base seed,
// and the outcome arity (or Numeric). It is the coordinator-side
// counterpart of mc.Sweep's arguments.
type SweepSpec struct {
	Sweep    string
	Grid     []float64
	Trials   int
	Seed     uint64
	Outcomes int
	Numeric  bool
	Dist     bool
	// Network, when non-nil, makes this a self-contained network sweep
	// (wire format v3): every shard carries the model and Sweep must be
	// the spec's content-addressed SweepID.
	Network *NetworkSpec
}

// Shard returns the ShardSpec for the trial range [lo, hi) of the sweep.
func (s SweepSpec) Shard(lo, hi int) ShardSpec {
	return ShardSpec{
		Version: FormatVersion, Sweep: s.Sweep, Grid: s.Grid, Trials: s.Trials,
		Lo: lo, Hi: hi, Seed: s.Seed, Outcomes: s.Outcomes, Numeric: s.Numeric, Dist: s.Dist,
		Network: s.Network,
	}
}

// emptyResult is the complete result of a zero-trial sweep: every point
// carries the empty tally of its kind and no trial ranges are covered.
func (s SweepSpec) emptyResult() ShardResult {
	r := resultHeader(s.Shard(0, s.Trials))
	r.Points = make([]PointTally, len(s.Grid))
	for i, p := range s.Grid {
		pt := PointTally{Param: p}
		if !s.Numeric && !s.Dist {
			pt.Counts = make([]int64, s.Outcomes)
		}
		r.Points[i] = pt
	}
	return r
}

// Validate checks the sweep description via its 1-shard spec.
func (s SweepSpec) Validate() error {
	return s.Shard(0, s.Trials).Validate()
}

// Partition splits the sweep's trial range [0, Trials) into n contiguous,
// near-equal shards (fewer when Trials < n). The single-process sweep is
// exactly the n = 1 case.
func (s SweepSpec) Partition(n int) []ShardSpec {
	if n < 1 {
		n = 1
	}
	if n > s.Trials {
		n = s.Trials
	}
	shards := make([]ShardSpec, 0, n)
	for i := 0; i < n; i++ {
		lo := i * s.Trials / n
		hi := (i + 1) * s.Trials / n
		shards = append(shards, s.Shard(lo, hi))
	}
	return shards
}

// Runner executes one shard somewhere — in this process (LocalRunner) or
// on a network worker (RemotePool.Runner) — and returns its result.
type Runner func(spec ShardSpec) (ShardResult, error)

// LocalRunner runs shards in-process against a registry.
func LocalRunner(reg *Registry) Runner {
	return func(spec ShardSpec) (ShardResult, error) {
		return Run(spec, reg)
	}
}

// Options tunes Coordinate.
type Options struct {
	// Parallel bounds concurrently dispatched shards; 0 dispatches all at
	// once (each in-process shard still parallelises internally, so use
	// Parallel with LocalRunner to avoid oversubscription).
	Parallel int
	// Retries is how many times a failing shard is re-dispatched before
	// its range is reported missing.
	Retries int
	// OnShardDone, when set, is called after each shard completes — when
	// a journal is in play (ResumeCoordinate), after its result is
	// durably journaled — and its result is folded into the running
	// merge: done counts completed shards of this run, total is the
	// number dispatched. It may be called concurrently from dispatch
	// goroutines.
	OnShardDone func(done, total int, res ShardResult)
}

// Coordinate partitions the sweep into shards, fans them out over run,
// and merges the results, enforcing the protocol: a worker must return
// its shard's exact trial range (wrong or overlapping coverage is
// rejected), failed shards are retried Retries times, and a sweep that
// still has uncovered trials after merging fails with the missing ranges
// listed. On success the result is complete and bit-for-bit identical to
// the single-process sweep. Each result is folded into one running merge
// as it arrives, so the coordinator holds that merge plus the shards in
// flight, whatever the shard count.
func Coordinate(spec SweepSpec, shards int, run Runner, opts Options) (ShardResult, error) {
	if err := spec.Validate(); err != nil {
		return ShardResult{}, err
	}
	return coordinate(spec, spec.Partition(shards), &runningMerge{}, nil, run, opts)
}

// runningMerge folds shard results into one merged result as they arrive,
// from concurrent dispatch goroutines or from journal replay. MergeResults
// is associative and order-independent bit for bit, so the fold equals a
// merge of the whole set in any order, and only the fold is held.
type runningMerge struct {
	mu  sync.Mutex
	res ShardResult // the merge of every result added so far
	n   int         // results added
	err error       // the first merge failure; later adds are dropped
}

// add folds res into the merge. After a failure it returns that failure
// and drops res.
func (m *runningMerge) add(res ShardResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if m.n == 0 {
		m.res = res
	} else if m.res, m.err = MergeResults(m.res, res); m.err != nil {
		return m.err
	}
	m.n++
	return nil
}

// coordinate is the dispatch core shared by Coordinate and
// ResumeCoordinate: fan specs out over run with bounded parallelism and
// retries, durably journal each result that passes its check (when
// journal is non-nil), and fold it into merged — which ResumeCoordinate
// seeds with the journal's replay — before counting it done. A shard
// gives its dispatch slot back before it merges, so a merge never delays
// the next dispatch.
func coordinate(spec SweepSpec, specs []ShardSpec, merged *runningMerge, journal *Journal, run Runner, opts Options) (ShardResult, error) {
	if len(specs) == 0 && merged.n == 0 {
		// A zero-trial sweep dispatches nothing and replays nothing; its
		// merged result is the empty complete result, not a failure.
		return spec.emptyResult(), nil
	}
	parallel := opts.Parallel
	if parallel <= 0 || parallel > len(specs) {
		parallel = len(specs)
	}

	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallel)
	var done atomic.Int64
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp ShardSpec) {
			defer wg.Done()
			sem <- struct{}{}
			res, err := runShard(sp, run, journal, opts.Retries)
			<-sem
			if err != nil {
				errs[i] = err
				return
			}
			if merged.add(res) != nil {
				return // merged keeps the failure for the sweep's error
			}
			if opts.OnShardDone != nil {
				opts.OnShardDone(int(done.Add(1)), len(specs), res)
			}
		}(i, sp)
	}
	wg.Wait()

	if merged.err != nil {
		return ShardResult{}, merged.err
	}
	// errs is indexed by spec, and specs ascend in trial order, so the
	// failures are listed in trial order.
	var failures []string
	for _, err := range errs {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	if merged.n == 0 {
		return ShardResult{}, fmt.Errorf("shard: every shard failed:\n%s", strings.Join(failures, "\n"))
	}
	if !merged.res.Complete() {
		missing := merged.res.MissingRanges()
		return merged.res, fmt.Errorf("shard: incomplete sweep: missing trials %v:\n%s",
			missing, strings.Join(failures, "\n"))
	}
	return merged.res, nil
}

// runShard runs sp until a result passes checkShardResult, at most
// retries+1 times, and journals that result when journal is non-nil. The
// error names the last failed attempt.
func runShard(sp ShardSpec, run Runner, journal *Journal, retries int) (ShardResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := run(sp)
		if err == nil {
			err = checkShardResult(sp, res)
		}
		if err == nil {
			if journal != nil {
				// Journal before counting the shard complete: a result
				// that is not durable is a result a crash will lose. A
				// journal failure is fatal rather than retryable —
				// recomputing the shard will not fix the disk.
				if jerr := journal.Append(res); jerr != nil {
					return ShardResult{}, fmt.Errorf("shard %s: %w", sp.SpanRange(), jerr)
				}
			}
			return res, nil
		}
		if attempt >= retries {
			return ShardResult{}, fmt.Errorf("shard %s (attempt %d): %w", sp.SpanRange(), attempt+1, err)
		}
	}
}

// checkShardResult enforces that a worker answered the shard it was
// asked: same sweep identity and exactly the spec's trial range.
func checkShardResult(sp ShardSpec, res ShardResult) error {
	if err := headerCompatible(resultHeader(sp), res); err != nil {
		return err
	}
	wantRanges := []Range{{Lo: sp.Lo, Hi: sp.Hi}}
	if sp.Lo == sp.Hi {
		wantRanges = nil
	}
	if !rangesEqual(res.Ranges, wantRanges) {
		return fmt.Errorf("worker covered %v, spec asked %s", res.Ranges, sp.SpanRange())
	}
	return nil
}
