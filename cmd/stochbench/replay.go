package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
)

// body is one grid point's trial body as a shard factory builds it.
// Exactly one of classify (tally sweeps) and observe (dist sweeps) is set.
type body struct {
	newEngine func(*rng.PCG) any
	classify  func(any) int
	observe   func(any) mc.Obs
}

// factoryFor resolves a shard's factory the way shard.Run does.
func factoryFor(reg *shard.Registry, spec shard.ShardSpec) (shard.Factory, error) {
	if spec.Network != nil {
		return shard.NetworkFactory(spec.Network, spec.Numeric, spec.Dist)
	}
	return reg.Lookup(spec.Sweep)
}

func buildBody(f shard.Factory, spec shard.ShardSpec, param float64) (body, error) {
	switch {
	case spec.Numeric:
		return body{}, fmt.Errorf("stochbench: numeric sweeps are not replayed")
	case spec.Dist:
		t, err := f.DistF(param)
		return body{newEngine: t.NewEngine, observe: t.Observe}, err
	default:
		t, err := f.Outcome(param)
		return body{newEngine: t.NewEngine, classify: t.Classify}, err
	}
}

// runBody runs point i of the shard's trial range, as shard.Run does, with
// the given mc worker count (0: GOMAXPROCS).
func runBody(b body, f shard.Factory, spec shard.ShardSpec, i, workers int) shard.PointTally {
	cfg := mc.Config{Outcomes: spec.Outcomes, Seed: mc.PointSeed(spec.Seed, i), Workers: workers}
	pt := shard.PointTally{Param: spec.Grid[i]}
	if b.observe != nil {
		d := mc.RunDistRangeWith(cfg, f.Hist, spec.Lo, spec.Hi, b.newEngine, b.observe)
		pt.Dist = &d
		return pt
	}
	r := mc.RunRangeWith(cfg, spec.Lo, spec.Hi, b.newEngine, b.classify)
	pt.Counts, pt.None = r.Counts, r.None
	return pt
}

// rangeProbe instruments one mc range call from outside. It wraps the
// factory's engine constructor and trial body so that every trial's
// duration and observation land in preallocated arrays indexed by trial.
// mc hands worker w the generator rng.NewStream(seed, w) and the trials
// lo+w, lo+w+W, …, so the wrapper identifies w from the fresh generator and
// counts its calls.
type rangeProbe struct {
	seed    uint64
	workers int
	dur     []int64
	obs     []mc.Obs
	fast    []int64
	busy    []int64
}

type probedEngine struct {
	inner any
	hyb   *sim.Hybrid
	w, k  int
}

func newProbe(seed uint64, n int) *rangeProbe {
	w := min(runtime.GOMAXPROCS(0), n)
	return &rangeProbe{
		seed: seed, workers: w,
		dur: make([]int64, n), obs: make([]mc.Obs, n), fast: make([]int64, n), busy: make([]int64, w),
	}
}

func (p *rangeProbe) workerOf(gen *rng.PCG) int {
	for w := 0; w < p.workers; w++ {
		if *gen == *rng.NewStream(p.seed, uint64(w)) {
			return w
		}
	}
	panic("stochbench: a worker generator matches no mc stream; the runner's stream contract changed")
}

func (p *rangeProbe) wrap(b body) body {
	out := body{newEngine: func(gen *rng.PCG) any {
		w := p.workerOf(gen) // before the constructor draws from gen
		inner := b.newEngine(gen)
		h, _ := inner.(*sim.Hybrid)
		return &probedEngine{inner: inner, hyb: h, w: w}
	}}
	trial := func(eng any, run func(any) mc.Obs) mc.Obs {
		pe := eng.(*probedEngine)
		i := pe.w + pe.k*p.workers
		pe.k++
		t0 := time.Now()
		o := run(pe.inner)
		d := time.Since(t0).Nanoseconds()
		p.dur[i], p.obs[i] = d, o
		p.busy[pe.w] += d
		if pe.hyb != nil {
			p.fast[i] = pe.hyb.FastEvents()
		}
		return o
	}
	if b.observe != nil {
		out.observe = func(eng any) mc.Obs { return trial(eng, b.observe) }
	} else {
		out.classify = func(eng any) int {
			return trial(eng, func(e any) mc.Obs { return mc.Obs{Outcome: b.classify(e)} }).Outcome
		}
	}
	return out
}

// fold re-folds the recorded observations into the point's summary, the
// way the mc runner folds them, and returns its JSON.
func (p *rangeProbe) fold(lo, outcomes int, hcfg mc.HistConfig, dist bool) ([]byte, error) {
	if !dist {
		r := mc.Result{Counts: make([]int64, outcomes), Trials: int64(len(p.obs))}
		for _, o := range p.obs {
			if o.Outcome == mc.None {
				r.None++
			} else {
				r.Counts[o.Outcome]++
			}
		}
		return json.Marshal(shard.PointTally{Counts: r.Counts, None: r.None})
	}
	values := make([]float64, len(p.obs))
	hist := mc.NewHistSummary(hcfg)
	fpt := mc.NewFPTSummary(outcomes)
	for i, o := range p.obs {
		values[i] = o.Value
		hist.Add(o.IValue)
		fpt.Add(o.Outcome, o.Steps)
	}
	if len(p.obs) == 0 {
		return json.Marshal(shard.PointTally{Dist: &mc.DistSummary{}})
	}
	return json.Marshal(shard.PointTally{Dist: &mc.DistSummary{
		Moments: mc.NewMoments(lo, values), Sketch: mc.NewSketch(lo, values), Hist: hist, FPT: fpt,
	}})
}

// replay is the decomposed re-run of one traced rep's shards through the
// public calls a worker and a coordinator make, with a span around each.
type replay struct {
	reg  *shard.Registry
	tr   *tracer
	root int
	wire bool // shards crossed the wire, so their round trip includes the codecs

	// Per-call samples.
	decodeSpecUS, validateUS, factoryUS, runMS, rangeMS, foldMS []float64
	encodeUS, decodeUS, mergeUS, journalMS                      []float64
	specBytes, resultBytes, roundtripMS, transportMS, trialUS   []float64
	// Totals.
	trialNS, factoryNS, runNS, busyNS, capacityNS int64
	trials, events, fastEvents                    int64
	attempts, shards                              int
	firstSpec                                     shard.ShardSpec

	shardResults [][]shard.ShardResult // per sweep, per shard, as decoded
	failures     []string
	checks       int
}

func (r *replay) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// replayRep replays the shards of a traced rep and checks that the
// replay reproduces the rep's merged results byte for byte.
func replayRep(e *env, specs []shard.SweepSpec, rt *repTrace, rep []shard.ShardResult) (*replay, error) {
	shards := rt.shards()
	runnerSpans := rt.tr.snapshot()
	r := &replay{reg: e.reg, tr: rt.tr, wire: e.w.fleet, shards: len(shards), firstSpec: shards[0].spec}
	r.shardResults = make([][]shard.ShardResult, len(specs))
	r.root = r.tr.begin("replay", 0, -1)
	for _, d := range shards {
		res, err := r.shard(d, runnerSpans)
		if err != nil {
			return nil, err
		}
		r.shardResults[d.sweep] = append(r.shardResults[d.sweep], res)
		r.attempts += len(d.spans)
	}
	for k, spec := range specs {
		merged, err := r.mergeAndJournal(e.dir, spec, k, shards)
		if err != nil {
			return nil, err
		}
		if merged.Dist {
			r.addEvents(merged)
		}
		a, err1 := merged.Encode()
		b, err2 := rep[k].Encode()
		r.check(err1 == nil && err2 == nil && bytes.Equal(a, b),
			"%s sweep %d: the decomposed replay does not reproduce the traced rep's merged result", e.w.name, k)
	}
	r.tr.end(r.root)
	return r, nil
}

// addEvents adds a dist result's exact jump-chain event total.
func (r *replay) addEvents(res shard.ShardResult) {
	for i := range res.Points {
		d, err := res.DistAt(i)
		if err != nil {
			continue
		}
		for _, c := range d.FPT.Classes {
			r.events += c.Steps
		}
		r.events += d.FPT.Unresolved.Steps
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *replay) shard(d dispatched, runnerSpans []span) (shard.ShardResult, error) {
	tr, idx := r.tr, d.index
	raw, err := d.spec.Encode()
	if err != nil {
		return shard.ShardResult{}, err
	}
	r.specBytes = append(r.specBytes, float64(len(raw)))
	id := tr.begin("shard.decode_spec", r.root, idx)
	spec, err := shard.DecodeSpec(raw)
	decodeSpec := tr.end(id)
	if err != nil {
		return shard.ShardResult{}, err
	}
	r.decodeSpecUS = append(r.decodeSpecUS, us(decodeSpec))

	run := tr.begin("shard.run", r.root, idx)
	id = tr.begin("shard.validate", run, idx)
	err = spec.Validate()
	r.validateUS = append(r.validateUS, us(tr.end(id)))
	if err != nil {
		tr.end(run)
		return shard.ShardResult{}, err
	}
	out := shard.ShardResult{
		Version: shard.FormatVersion, Sweep: spec.Sweep, Grid: spec.Grid, Trials: spec.Trials,
		Seed: spec.Seed, Outcomes: spec.Outcomes, Numeric: spec.Numeric, Dist: spec.Dist,
		Points: make([]shard.PointTally, len(spec.Grid)),
	}
	if spec.Hi > spec.Lo {
		out.Ranges = []shard.Range{{Lo: spec.Lo, Hi: spec.Hi}}
	}
	var f shard.Factory
	probes := make([]*rangeProbe, len(spec.Grid))
	for i, param := range spec.Grid {
		id = tr.begin("shard.factory", run, idx)
		if i == 0 {
			f, err = factoryFor(r.reg, spec)
		}
		var b body
		if err == nil {
			b, err = buildBody(f, spec, param)
		}
		fd := tr.end(id)
		if err != nil {
			tr.end(run)
			return shard.ShardResult{}, fmt.Errorf("shard %s at %v: %w", spec.Sweep, param, err)
		}
		r.factoryUS = append(r.factoryUS, us(fd))
		r.factoryNS += fd.Nanoseconds()

		p := newProbe(mc.PointSeed(spec.Seed, i), spec.Hi-spec.Lo)
		probes[i] = p
		id = tr.begin("mc.range", run, idx)
		out.Points[i] = runBody(p.wrap(b), f, spec, i, 0)
		rd := tr.end(id)
		r.rangeMS = append(r.rangeMS, ms(rd))
		r.capacityNS += rd.Nanoseconds() * int64(p.workers)
	}
	runDur := tr.end(run)
	r.runMS = append(r.runMS, ms(runDur))
	r.runNS += runDur.Nanoseconds()

	for i, p := range probes {
		for t, dn := range p.dur {
			r.trialUS = append(r.trialUS, float64(dn)/1e3)
			r.trialNS += dn
			r.fastEvents += p.fast[t]
		}
		for _, b := range p.busy {
			r.busyNS += b
		}
		r.trials += int64(len(p.dur))
		id = tr.begin("mc.fold", r.root, idx)
		folded, err := p.fold(spec.Lo, spec.Outcomes, f.Hist, spec.Dist)
		r.foldMS = append(r.foldMS, ms(tr.end(id)))
		want, err2 := json.Marshal(shard.PointTally{Counts: out.Points[i].Counts, None: out.Points[i].None, Dist: out.Points[i].Dist})
		r.check(err == nil && err2 == nil && bytes.Equal(folded, want),
			"shard %d point %d: the probe's per-trial record does not re-fold to the runner's summary", idx, i)
	}

	id = tr.begin("shard.encode_result", r.root, idx)
	enc, err := out.Encode()
	encode := tr.end(id)
	if err != nil {
		return shard.ShardResult{}, err
	}
	r.encodeUS = append(r.encodeUS, us(encode))
	r.resultBytes = append(r.resultBytes, float64(len(enc)))
	id = tr.begin("shard.decode_result", r.root, idx)
	dec, err := shard.DecodeResult(enc)
	r.decodeUS = append(r.decodeUS, us(tr.end(id)))
	if err != nil {
		return shard.ShardResult{}, err
	}

	// The successful attempt is the shard's last runner span.
	last := runnerSpans[d.spans[len(d.spans)-1]-1]
	roundtrip := time.Duration(last.End - last.Start)
	compute := runDur
	if r.wire {
		compute += decodeSpec + encode
	}
	r.roundtripMS = append(r.roundtripMS, ms(roundtrip))
	r.transportMS = append(r.transportMS, ms(roundtrip-compute))
	return dec, nil
}

// mergeAndJournal merges sweep k's replayed shards in shard order and
// appends them to a fresh journal, one span per call.
func (r *replay) mergeAndJournal(dir string, spec shard.SweepSpec, k int, shards []dispatched) (shard.ShardResult, error) {
	var idx []int
	for _, d := range shards {
		if d.sweep == k {
			idx = append(idx, d.index)
		}
	}
	results := r.shardResults[k]
	merged := results[0]
	for j := 1; j < len(results); j++ {
		id := r.tr.begin("shard.merge", r.root, idx[j])
		var err error
		merged, err = shard.MergeResults(merged, results[j])
		r.mergeUS = append(r.mergeUS, us(r.tr.end(id)))
		if err != nil {
			return shard.ShardResult{}, err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("replay-%d.journal", k))
	j, _, err := shard.OpenJournal(path, spec)
	if err != nil {
		return shard.ShardResult{}, err
	}
	defer os.Remove(path)
	defer j.Close()
	for n, res := range results {
		id := r.tr.begin("shard.journal_append", r.root, idx[n])
		err := j.Append(res)
		r.journalMS = append(r.journalMS, ms(r.tr.end(id)))
		if err != nil {
			return shard.ShardResult{}, err
		}
	}
	return merged, nil
}

// twin runs fig5-natural's stream-identical lambda/natural-dist sweep over
// the same shards, checks its outcome counts against the tally's, and
// returns its per-shard results, whose first-passage step totals are the
// tally trials' exact event counts.
func (r *replay) twin(e *env, tally shard.ShardResult) ([]shard.ShardResult, error) {
	var results []shard.ShardResult
	for _, res := range r.shardResults[0] {
		spec := shard.ShardSpec{
			Version: shard.FormatVersion, Sweep: shard.SweepLambdaNaturalDist, Grid: res.Grid, Trials: res.Trials,
			Lo: res.Ranges[0].Lo, Hi: res.Ranges[0].Hi, Seed: res.Seed, Outcomes: res.Outcomes, Dist: true,
		}
		t, err := shard.Run(spec, e.reg)
		if err != nil {
			return nil, err
		}
		results = append(results, t)
	}
	merged, err := shard.MergeAll(results...)
	if err != nil {
		return nil, err
	}
	same := true
	for i := range tally.Points {
		d, err := merged.DistAt(i)
		if err != nil {
			return nil, err
		}
		pt := tally.Points[i]
		for o, c := range pt.Counts {
			same = same && d.FPT.Classes[o].Count == c
		}
		same = same && d.FPT.Unresolved.Count == pt.None
	}
	r.check(same, "fig5-natural: the lambda/natural-dist twin's outcome counts differ from the tally's")
	r.addEvents(merged)
	return results, nil
}
