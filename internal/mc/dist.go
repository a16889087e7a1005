package mc

import (
	"fmt"

	"stochsynth/internal/rng"
)

// Obs is one trial's distribution observation: a continuous measurement
// (moments + quantile sketch), an integer measurement (fixed-bin
// histogram), and the trial's threshold-race outcome with its jump-chain
// first-passage event count (first-passage summary). Trial bodies that
// have no race set Outcome to None and Steps to 0.
type Obs struct {
	Value   float64
	IValue  int64
	Outcome int
	Steps   int64
}

// DistSummary bundles every shard-mergeable distribution summary of one
// run (or of any disjoint trial range of it): the canonical moment
// forest and quantile sketch of Value, the fixed-bin histogram of IValue,
// and the first-passage summary of (Outcome, Steps). Each component
// merges exactly — bit-for-bit identical for every partition and merge
// order — so the bundle does too.
//
// The zero value is the empty summary (a merge identity). The JSON field
// names are part of the shard wire format v2.
type DistSummary struct {
	Moments Moments     `json:"moments,omitempty"`
	Sketch  Sketch      `json:"sketch,omitempty"`
	Hist    HistSummary `json:"hist,omitempty"`
	FPT     FPTSummary  `json:"fpt,omitempty"`
}

// N returns the number of trials summarised.
func (d DistSummary) N() int64 { return d.Moments.N() }

// Empty reports whether the summary covers no trials.
func (d DistSummary) Empty() bool {
	return len(d.Moments) == 0 && len(d.Sketch) == 0 && d.Hist.N == 0 && d.FPT.N() == 0 && len(d.FPT.Classes) == 0
}

// Validate checks the bundle's invariants: each component is valid, the
// tree-canonical components cover identical trial ranges, and the flat
// components tally the same number of trials. outcomes is the expected
// first-passage arity. The empty summary is valid for any arity.
func (d DistSummary) Validate(outcomes int) error {
	if d.Empty() {
		return nil
	}
	if err := d.Moments.Validate(); err != nil {
		return err
	}
	if err := d.Sketch.Validate(); err != nil {
		return err
	}
	if err := d.Hist.Validate(); err != nil {
		return err
	}
	if err := d.FPT.Validate(); err != nil {
		return err
	}
	if len(d.FPT.Classes) != outcomes {
		return fmt.Errorf("mc: distribution summary has %d first-passage classes, want %d", len(d.FPT.Classes), outcomes)
	}
	mSpans, sSpans := d.Moments.Spans(), d.Sketch.Spans()
	if len(mSpans) != len(sSpans) {
		return fmt.Errorf("mc: distribution summary components disagree on coverage")
	}
	for i := range mSpans {
		if mSpans[i] != sSpans[i] {
			return fmt.Errorf("mc: distribution summary components disagree on coverage")
		}
	}
	n := d.Moments.N()
	if d.Hist.N != n || d.FPT.N() != n {
		return fmt.Errorf("mc: distribution summary tallies %d moments, %d histogram, %d first-passage trials",
			n, d.Hist.N, d.FPT.N())
	}
	return nil
}

// MergeDist merges the distribution summaries of two disjoint trial
// ranges of one run, component-wise. An empty operand is the identity.
func MergeDist(a, b DistSummary) (DistSummary, error) {
	if a.Empty() {
		return b, nil
	}
	if b.Empty() {
		return a, nil
	}
	var out DistSummary
	var err error
	if out.Moments, err = MergeMoments(a.Moments, b.Moments); err != nil {
		return DistSummary{}, err
	}
	if out.Sketch, err = MergeSketches(a.Sketch, b.Sketch); err != nil {
		return DistSummary{}, err
	}
	if out.Hist, err = MergeHist(a.Hist, b.Hist); err != nil {
		return DistSummary{}, err
	}
	if out.FPT, err = MergeFPT(a.FPT, b.FPT); err != nil {
		return DistSummary{}, err
	}
	return out, nil
}

// RunDistWith executes cfg.Trials independent trials with per-worker
// engine reuse (see RunWith) and returns the whole run's distribution
// summary — the 1-shard special case of RunDistRangeWith. cfg.Outcomes is
// the first-passage arity; hcfg fixes the histogram layout.
func RunDistWith[E any](cfg Config, hcfg HistConfig, newEngine func(gen *rng.PCG) E, observe func(eng E) Obs) DistSummary {
	if cfg.Trials <= 0 {
		panic("mc: Config.Trials must be positive")
	}
	return RunDistRangeWith(cfg, hcfg, 0, cfg.Trials, newEngine, observe)
}

// RunDistRangeWith executes the trial-index range [lo, hi) of a
// conceptual run and returns its distribution summary. Trial i draws from
// the stream (cfg.Seed, i) exactly as in RunRangeWith, so the summaries
// of any disjoint partition of [0, n) merge (MergeDist) to the full run's
// summary bit-for-bit — the distribution analogue of RunNumericRangeWith,
// and the collector behind sharded distribution sweeps (internal/shard).
// cfg.Trials is ignored; the range defines the work. An empty range
// yields the empty summary.
func RunDistRangeWith[E any](cfg Config, hcfg HistConfig, lo, hi int, newEngine func(gen *rng.PCG) E, observe func(eng E) Obs) DistSummary {
	if cfg.Outcomes <= 0 {
		panic("mc: Config.Outcomes must be positive")
	}
	if err := hcfg.Validate(); err != nil {
		panic(err.Error())
	}
	checkRange(lo, hi)
	if lo == hi {
		return DistSummary{}
	}
	obs := make([]Obs, hi-lo)
	forEachTrial(cfg, lo, hi, newEngine, func(_, i int, eng E) {
		obs[i-lo] = observe(eng)
	})

	// Fold in trial-index order: the tree-canonical components require it,
	// and the integer components are order-independent anyway.
	values := make([]float64, len(obs))
	hist := NewHistSummary(hcfg)
	fpt := NewFPTSummary(cfg.Outcomes)
	for i, o := range obs {
		values[i] = o.Value
		hist.Add(o.IValue)
		if o.Outcome != None && (o.Outcome < 0 || o.Outcome >= cfg.Outcomes) {
			panic(fmt.Sprintf("mc: observer returned outcome %d for trial %d, want [0,%d) or None",
				o.Outcome, lo+i, cfg.Outcomes))
		}
		fpt.Add(o.Outcome, o.Steps)
	}
	return DistSummary{
		Moments: NewMoments(lo, values),
		Sketch:  NewSketch(lo, values),
		Hist:    hist,
		FPT:     fpt,
	}
}
