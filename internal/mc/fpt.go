package mc

import (
	"fmt"
	"math/bits"
)

// FPTSummary is a shard-mergeable first-passage-time summary for
// threshold races computed on the embedded jump chain
// (sim.RunThresholdRace): per outcome it records how many trials that
// outcome won and the distribution of the number of jump-chain events it
// took to get there. The fused race loops elide waiting-time draws, so
// the event count is the exact first-passage statistic the jump chain
// carries — see docs/engines.md.
//
// Every field is an integer tally or sum, so merging is exact addition:
// like HistSummary, the merged summary is bit-for-bit identical for every
// partition of the trial range and every merge order. Trials the race did
// not resolve (outcome None: quiescence or the step bound) accumulate in
// Unresolved.
//
// The JSON field names are part of the shard wire format v2.
type FPTSummary struct {
	// Classes[o] summarises the trials won by outcome o.
	Classes []FPTClass `json:"classes"`
	// Unresolved summarises the trials with no winner.
	Unresolved FPTClass `json:"unresolved"`
}

// FPTClass is one outcome's first-passage tally.
type FPTClass struct {
	// Count is the number of trials in the class.
	Count int64 `json:"count,omitempty"`
	// Steps is the exact total of jump-chain event counts over the class,
	// so Steps/Count is the class's exact mean first-passage event count.
	Steps int64 `json:"steps,omitempty"`
	// MinSteps and MaxSteps are the exact extremes (valid when Count > 0).
	MinSteps int64 `json:"min,omitempty"`
	MaxSteps int64 `json:"max,omitempty"`
	// LogBins is a base-2 logarithmic histogram of the event counts:
	// LogBins[0] counts 0-step passages and LogBins[k] counts passages
	// with step count in [2^(k-1), 2^k). Trailing zero bins are trimmed,
	// so the encoding is canonical.
	LogBins []int64 `json:"logbins,omitempty"`
}

// NewFPTSummary returns an empty summary with the given outcome arity.
func NewFPTSummary(outcomes int) FPTSummary {
	if outcomes <= 0 {
		panic("mc: NewFPTSummary needs a positive outcome arity")
	}
	return FPTSummary{Classes: make([]FPTClass, outcomes)}
}

// Add records one race: outcome is an index in [0, arity) or None, steps
// the jump-chain event count to first passage (non-negative).
func (f *FPTSummary) Add(outcome int, steps int64) {
	if steps < 0 {
		panic("mc: FPTSummary.Add with negative step count")
	}
	cl := &f.Unresolved
	if outcome != None {
		cl = &f.Classes[outcome]
	}
	cl.add(steps)
}

func (c *FPTClass) add(steps int64) {
	if c.Count == 0 || steps < c.MinSteps {
		c.MinSteps = steps
	}
	if c.Count == 0 || steps > c.MaxSteps {
		c.MaxSteps = steps
	}
	c.Count++
	c.Steps += steps
	bin := bits.Len64(uint64(steps))
	for len(c.LogBins) <= bin {
		c.LogBins = append(c.LogBins, 0)
	}
	c.LogBins[bin]++
}

// N returns the total number of trials summarised.
func (f FPTSummary) N() int64 {
	n := f.Unresolved.Count
	for _, c := range f.Classes {
		n += c.Count
	}
	return n
}

// class returns outcome o's tally; the empty summary (no classes, as
// from a zero-trial range) reads as zero counts for every outcome.
func (f FPTSummary) class(o int) FPTClass {
	if f.Classes == nil {
		return FPTClass{}
	}
	return f.Classes[o]
}

// MeanSteps returns outcome o's exact mean first-passage event count
// (0 when the class is empty).
func (f FPTSummary) MeanSteps(o int) float64 {
	c := f.class(o)
	if c.Count == 0 {
		return 0
	}
	return float64(c.Steps) / float64(c.Count)
}

// Proportion returns the estimator for outcome o over all summarised
// trials (unresolved trials count in the denominator), mirroring
// Result.Proportion.
func (f FPTSummary) Proportion(o int) Proportion {
	return Proportion{Successes: f.class(o).Count, Trials: f.N()}
}

// Validate checks the summary's structural invariants.
func (f FPTSummary) Validate() error {
	if len(f.Classes) == 0 {
		return fmt.Errorf("mc: first-passage summary has no outcome classes")
	}
	for o, c := range f.Classes {
		if err := c.validate(); err != nil {
			return fmt.Errorf("mc: first-passage class %d: %w", o, err)
		}
	}
	if err := f.Unresolved.validate(); err != nil {
		return fmt.Errorf("mc: first-passage unresolved class: %w", err)
	}
	return nil
}

func (c FPTClass) validate() error {
	if c.Count < 0 {
		return fmt.Errorf("negative count")
	}
	if c.Count == 0 {
		if c.Steps != 0 || c.MinSteps != 0 || c.MaxSteps != 0 || len(c.LogBins) != 0 {
			return fmt.Errorf("empty class carries tallies")
		}
		return nil
	}
	if c.MinSteps < 0 || c.MinSteps > c.MaxSteps {
		return fmt.Errorf("step extremes [%d, %d] are inconsistent", c.MinSteps, c.MaxSteps)
	}
	if c.Steps < c.MinSteps*c.Count || c.Steps > c.MaxSteps*c.Count {
		return fmt.Errorf("step total %d outside [%d, %d]", c.Steps, c.MinSteps*c.Count, c.MaxSteps*c.Count)
	}
	if len(c.LogBins) == 0 || len(c.LogBins) > 65 {
		return fmt.Errorf("log histogram has %d bins", len(c.LogBins))
	}
	if c.LogBins[len(c.LogBins)-1] == 0 {
		return fmt.Errorf("log histogram has an untrimmed trailing zero bin")
	}
	var sum int64
	for k, b := range c.LogBins {
		if b < 0 {
			return fmt.Errorf("log bin %d is negative", k)
		}
		sum += b
	}
	if sum != c.Count {
		return fmt.Errorf("log bins sum to %d, count is %d", sum, c.Count)
	}
	return nil
}

// MergeFPT merges the first-passage summaries of two disjoint trial
// ranges by exact integer sums. An empty operand (zero classes) is the
// identity; otherwise the arities must agree.
func MergeFPT(a, b FPTSummary) (FPTSummary, error) {
	if len(a.Classes) == 0 && a.Unresolved.Count == 0 {
		return b, nil
	}
	if len(b.Classes) == 0 && b.Unresolved.Count == 0 {
		return a, nil
	}
	if len(a.Classes) != len(b.Classes) {
		return FPTSummary{}, fmt.Errorf("mc: first-passage arities differ (%d vs %d)", len(a.Classes), len(b.Classes))
	}
	out := FPTSummary{Classes: make([]FPTClass, len(a.Classes))}
	for o := range a.Classes {
		out.Classes[o] = mergeFPTClass(a.Classes[o], b.Classes[o])
	}
	out.Unresolved = mergeFPTClass(a.Unresolved, b.Unresolved)
	return out, nil
}

func mergeFPTClass(a, b FPTClass) FPTClass {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := FPTClass{
		Count:    a.Count + b.Count,
		Steps:    a.Steps + b.Steps,
		MinSteps: min(a.MinSteps, b.MinSteps),
		MaxSteps: max(a.MaxSteps, b.MaxSteps),
		LogBins:  make([]int64, max(len(a.LogBins), len(b.LogBins))),
	}
	for k := range out.LogBins {
		if k < len(a.LogBins) {
			out.LogBins[k] += a.LogBins[k]
		}
		if k < len(b.LogBins) {
			out.LogBins[k] += b.LogBins[k]
		}
	}
	return out
}
