package main

import (
	"fmt"
	"time"

	"stochsynth/internal/shard"
)

// minPairs is the least number of untraced/traced rep pairs behind
// trace.overhead_frac.
const minPairs = 3

// countScale shrinks the sweeps of the determinism count passes.
const countScale = 1.0 / 20

// exactCounts are the traced pass's host-independent work counts: events
// per trial, hybrid fast events per trial, refresh records per event of
// the recorded trials, and the median shard result size in bytes.
type exactCounts [4]float64

// traceWork is what a traced rep and its replay yield.
type traceWork struct {
	replay  *replay
	dists   [][]shard.ShardResult // per sweep, per shard: results carrying dist summaries
	kernels []kernel
	fired   [][]int32
	records int64
	events  int64
	counts  exactCounts
}

// work replays a traced rep, runs fig5-natural's dist twin, and records
// one trial on each of the workload's kernels.
func work(e *env, specs []shard.SweepSpec, rt *repTrace, rep []shard.ShardResult) (*traceWork, error) {
	r, err := replayRep(e, specs, rt, rep)
	if err != nil {
		return nil, err
	}
	tw := &traceWork{replay: r, dists: r.shardResults}
	if specs[0].Sweep == shard.SweepLambdaNatural {
		twin, err := r.twin(e, rep[0])
		if err != nil {
			return nil, err
		}
		tw.dists = [][]shard.ShardResult{twin}
	}
	if tw.kernels, err = kernelsOf(specs); err != nil {
		return nil, err
	}
	for i := range tw.kernels {
		f := tw.kernels[i].record(specs[i].Seed)
		tw.fired = append(tw.fired, f)
		tw.records += tw.kernels[i].refreshRecords(f)
		tw.events += int64(len(f))
	}
	tw.counts = exactCounts{
		ratioF(float64(r.events), float64(r.trials)), ratioF(float64(r.fastEvents), float64(r.trials)),
		ratioF(float64(tw.records), float64(tw.events)), median(r.resultBytes),
	}
	return tw, nil
}

// countPass is a traced rep plus replay of the workload at countScale of
// the run's size, for the exact-count determinism check.
func countPass(e *env, w *workload, seed uint64, scale float64) (exactCounts, *replay, error) {
	specs := w.sweeps(seed, scale)
	rt := &repTrace{tr: newTracer()}
	_, res, err := e.timedRep(specs, rt)
	if err != nil {
		return exactCounts{}, nil, err
	}
	tw, err := work(e, specs, rt, res)
	if err != nil {
		return exactCounts{}, nil, err
	}
	return tw.counts, tw.replay, nil
}

// tracedPass measures the per-layer metrics of one workload: untraced and
// traced reps alternate (their throughput ratio is the tracing overhead),
// the last traced rep is replayed layer by layer, the rng/chem ladder runs
// on the workload's kernels, and count passes check the exact counts.
func tracedPass(w *workload, cfg config) (passResult, error) {
	var pr passResult
	specs := w.sweeps(cfg.seed, cfg.scale)
	e, err := setup(w, cfg.workdir, probeSpecs(specs))
	if err != nil {
		return pr, err
	}
	defer e.close()

	// Each pair runs an untraced and a traced rep back to back, alternating
	// which goes first; the overhead is the median of the pairs' ratios, so
	// host load that drifts over the run cancels within each pair.
	var overheads []float64
	var rt *repTrace
	var rep []shard.ShardResult
	start := time.Now()
	for pair := 0; pair < minPairs || time.Since(start).Seconds() < cfg.seconds; pair++ {
		var plain, traced float64
		for half := 0; half < 2; half++ {
			var t *repTrace
			if (pair+half)%2 == 1 {
				t = &repTrace{tr: newTracer()}
			}
			tps, res, err := e.timedRep(specs, t)
			if err != nil {
				return pr, fmt.Errorf("%s traced rep: %w", w.name, err)
			}
			if t == nil {
				plain = tps
			} else {
				traced, rt, rep = tps, t, res
			}
		}
		overheads = append(overheads, 1-traced/plain)
	}

	tw, err := work(e, specs, rt, rep)
	if err != nil {
		return pr, fmt.Errorf("%s replay: %w", w.name, err)
	}
	r := tw.replay
	pr.check(r.failures, r.checks)

	budget := time.Duration(float64(40*time.Millisecond) * min(1, max(cfg.scale, 0.05)))
	uniform, poisson, binomial := rngLadder(budget, cfg.seed)
	var channels int
	var compileUS, propW, fireW, selectW, weight float64
	for i := range tw.kernels {
		k := &tw.kernels[i]
		channels += k.comp.NumChannels()
		compileUS += k.compileUS(budget)
		p, f, s := k.chemLadder(tw.fired[i], budget, cfg.seed)
		n := float64(max(1, len(tw.fired[i])))
		propW, fireW, selectW, weight = propW+p*n, fireW+f*n, selectW+s*n, weight+n
	}
	scale2v1, allocPerTrial, err := scaling(e.reg, r.firstSpec)
	if err != nil {
		return pr, err
	}

	var counts []exactCounts
	for _, seed := range []uint64{cfg.seed, cfg.seed, cfg.seed + 1} {
		c, cr, err := countPass(e, w, seed, cfg.scale*countScale)
		if err != nil {
			return pr, fmt.Errorf("%s count pass: %w", w.name, err)
		}
		pr.check(cr.failures, cr.checks)
		counts = append(counts, c)
	}
	var fails []string
	if counts[0] != counts[1] {
		fails = append(fails, fmt.Sprintf("%s: exact counts %v and %v differ between two passes at seed %d", w.name, counts[0], counts[1], cfg.seed))
	}
	if counts[0] == counts[2] {
		fails = append(fails, fmt.Sprintf("%s: exact counts %v do not change with the seed", w.name, counts[0]))
	}
	pr.check(fails, 2)
	pr.countAttempts(e)

	pr.spans = rt.tr.snapshot()
	pr.SelfTime = selfTable(pr.spans)

	add := pr.add
	tailOf := func(name string, xs []float64, unit string) {
		v, label := tail(xs)
		add(name, v, unit, label)
	}
	exact := tw.counts
	add("rng.uniform_ns", uniform, "ns", "PCG.Float64")
	add("rng.poisson_ns", poisson, "ns", "Poisson(50)")
	add("rng.binomial_ns", binomial, "ns", "Binomial(1000, 0.3)")
	add("chem.channels", float64(channels), "count", fmt.Sprintf("summed over %d network(s)", len(tw.kernels)))
	add("chem.refresh_records_per_event", exact[2], "records/event", fmt.Sprintf("%d records over %d recorded events", tw.records, tw.events))
	add("chem.compile_us", compileUS, "us", "median per network, summed over the workload's networks")
	add("chem.propensities_ns", propW/weight, "ns", "PropensitiesInto per call")
	add("chem.fire_refresh_ns", fireW/weight, "ns", "FireAndRefresh per event")
	add("chem.select_ns", selectW/weight, "ns", "channel selection per call")
	add("sim.events_per_trial", exact[0], "events/trial", fmt.Sprintf("%d events over %d trials", r.events, r.trials))
	add("sim.fast_events_per_trial", exact[1], "events/trial", "hybrid relay and leap firings")
	add("sim.ns_per_event", ratioF(float64(r.trialNS), float64(r.events)), "ns", "trial time over exact event count")
	add("sim.trial_us_p50", median(r.trialUS), "us", fmt.Sprintf("n=%d", len(r.trialUS)))
	tailOf("sim.trial_us_tail", r.trialUS, "us")
	add("mc.range_ms", median(r.rangeMS), "ms", fmt.Sprintf("median of %d range calls", len(r.rangeMS)))
	add("mc.fold_ms", median(r.foldMS), "ms", fmt.Sprintf("median of %d folds", len(r.foldMS)))
	add("mc.worker_idle_frac", 1-ratioF(float64(r.busyNS), float64(r.capacityNS)), "ratio", "1 - trial busy time / (workers x range wall time)")
	add("mc.scaling_2v1", scale2v1, "ratio", "1-worker / 2-worker time on the first shard")
	add("mc.alloc_bytes_per_trial", allocPerTrial, "bytes", "TotalAlloc delta over the 2-worker runs")
	add("mc.merge_dist_us", mergeDistUS(budget, tw.dists), "us", "per MergeDist call")
	add("lambda.model_build_ms", modelBuildMS(budget, specs), "ms", "")
	add("synth.module_build_us", moduleBuildUS(budget), "us", "Figure3Spec(gamma).Build per module")
	add("shard.factory_us", median(r.factoryUS), "us", "per grid point")
	add("shard.factory_share", ratioF(float64(r.factoryNS), float64(r.runNS)), "ratio", "factory time / shard.Run time")
	add("shard.validate_us", median(r.validateUS), "us", "")
	add("shard.spec_bytes", median(r.specBytes), "bytes", "median per shard")
	add("shard.result_bytes", exact[3], "bytes", "median per shard")
	add("shard.encode_us", median(r.encodeUS), "us", "ShardResult.Encode")
	add("shard.decode_us", median(r.decodeUS), "us", "DecodeResult")
	add("shard.merge_us", median(r.mergeUS), "us", fmt.Sprintf("n=%d", len(r.mergeUS)))
	add("shard.journal_append_ms_p50", median(r.journalMS), "ms", fmt.Sprintf("n=%d", len(r.journalMS)))
	tailOf("shard.journal_append_ms_tail", r.journalMS, "ms")
	add("shard.run_ms_p50", median(r.runMS), "ms", fmt.Sprintf("n=%d", len(r.runMS)))
	tailOf("shard.run_ms_tail", r.runMS, "ms")
	add("shard.roundtrip_ms_p50", median(r.roundtripMS), "ms", fmt.Sprintf("n=%d", len(r.roundtripMS)))
	tailOf("shard.roundtrip_ms_tail", r.roundtripMS, "ms")
	transportNote := "round trip - shard.Run (in-process: no codecs on the path)"
	if r.wire {
		transportNote = "round trip - (decode spec + shard.Run + encode result)"
	}
	add("shard.transport_ms", median(r.transportMS), "ms", transportNote)
	add("shard.attempts", float64(r.attempts), "count", "traced rep")
	add("shard.retries", float64(r.attempts-r.shards), "count", "traced rep")
	q1, q3 := quartiles(overheads)
	add("trace.overhead_frac", median(overheads), "ratio",
		fmt.Sprintf("1 - traced/untraced trials/s, median of %d alternating pairs, q1 %.4f, q3 %.4f", len(overheads), q1, q3))
	return pr, nil
}

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
