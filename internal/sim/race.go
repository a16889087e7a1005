package sim

import (
	"stochsynth/internal/chem"
)

// SpeciesThreshold is one outcome threshold of a race: reached when the
// count of Species is at least Count.
type SpeciesThreshold struct {
	Species chem.Species
	Count   int64
}

// reached reports whether st meets any threshold of ths (none for an
// empty list).
func reached(st chem.State, ths []SpeciesThreshold) bool {
	for _, th := range ths {
		if st[th.Species] >= th.Count {
			return true
		}
	}
	return false
}

// localThresholds copies ths into buf, in the racing goroutine's stack,
// and returns the copy; a list longer than buf is returned as is. Monte
// Carlo workers share one list, and a small list can share a cache line
// with another worker's per-event state (a two-threshold list and a
// generator are both 32-byte objects): reading the list every event from
// that line would bounce it between cores.
func localThresholds(buf *[8]SpeciesThreshold, ths []SpeciesThreshold) []SpeciesThreshold {
	if len(ths) > len(buf) {
		return ths
	}
	return buf[:copy(buf[:], ths)]
}

// thresholdRacer is implemented by engines with an internal fused loop for
// racing species thresholds: Direct and OptimizedDirect on the embedded
// jump chain, the Hybrid with its waiting times kept.
type thresholdRacer interface {
	raceThresholds(ths []SpeciesThreshold, maxSteps int64) RunResult
}

// RunThresholdRace drives eng until the count of some ths[i].Species
// reaches ths[i].Count, the engine goes quiescent, or maxSteps events fire
// (0 means no step bound). The list is checked before the first event and
// after every event; an empty list never stops the race, so the engine
// runs to the step bound or quiescence. ths is only read, so one list can
// be shared by every Monte Carlo worker.
//
// The direct engines (Direct, OptimizedDirect) race on the *embedded jump
// chain*: the winner of a threshold race, the event count, and quiescence
// are functions of the jump chain alone — P(next event = channel i) =
// aᵢ/Σa regardless of the holding times — so their fused loops skip the
// per-event waiting-time draw entirely. This is exact for every time-free
// statistic (anything derived from Reason, Steps, and the final state) and
// is worth ~35% of trial throughput on the lambda outcome races, the
// package's hottest Monte Carlo path. Time() consequently does not advance
// over their races; callers must not derive timing statistics from it.
//
// The Hybrid's fused loop keeps the waiting-time draw, because its active
// relays advance over the elapsed time: it draws exactly what Run over
// Step draws, so Time() advances over a hybrid race. Between events it
// shows relay species as of their last settlement (see Hybrid), which never
// affects a race on protected species — those are never relay species —
// and it settles before returning, so the final state is whole.
//
// The direct engines' fused loops carry nothing across calls but the
// engine itself, so a race split into consecutive calls of 1 and n−1
// steps draws exactly what one n-step call draws. So does the Hybrid's
// while no relay is active; with one active, each return settles it, so a
// split race is the same only in distribution.
//
// Engines without a fused loop (FirstReaction) fall back to Run, which
// advances time; outcome, step count and final state keep the same
// distribution either way, but randomness consumption differs from the
// jump-chain races, so the paths are not trajectory-for-trajectory
// identical.
func RunThresholdRace(eng Engine, ths []SpeciesThreshold, maxSteps int64) RunResult {
	if r, ok := eng.(thresholdRacer); ok {
		return r.raceThresholds(ths, maxSteps)
	}
	var buf [8]SpeciesThreshold
	local := localThresholds(&buf, ths)
	return Run(eng, RunOptions{
		MaxSteps: maxSteps,
		StopWhen: func(st chem.State, _ float64) bool { return reached(st, local) },
	})
}

// raceThresholds implements thresholdRacer for OptimizedDirect: the Step
// body inlined into the race loop, with the infinite horizon specialised
// away and the waiting-time draw elided (jump-chain exactness; see
// RunThresholdRace). Mirrors Run's control flow: predicate before the
// first event, step bound checked before each event, predicate after each.
//
//stochlint:noalloc
func (o *OptimizedDirect) raceThresholds(ths []SpeciesThreshold, maxSteps int64) RunResult {
	var buf [8]SpeciesThreshold
	ths = localThresholds(&buf, ths)
	st := o.state
	if reached(st, ths) {
		return RunResult{Steps: 0, Time: o.t, Reason: StopPredicate}
	}
	comp := o.comp
	gen := o.gen
	hasTails := len(comp.Tails) > 0
	sums := o.sums
	if maxSteps <= 0 {
		maxSteps = int64(^uint64(0) >> 1)
	}
	// total and stale live in registers across the event loop; they are
	// written back to the engine at every exit and around recomputeAll.
	total, stale := o.total, o.stale
	// Non-escaping closure: stays on the stack (TestThresholdRaceZeroAllocs
	// pins the whole race at zero allocations).
	sync := func(steps int64, reason StopReason) RunResult { //stochlint:allow alloc
		o.total, o.stale = total, stale
		return RunResult{Steps: steps, Time: o.t, Reason: reason}
	}
	var steps int64
	for {
		if steps >= maxSteps {
			return sync(steps, StopSteps)
		}
		if total <= 1e-300 { // fully drained (or drifted to noise): recheck exactly
			o.recomputeAll()
			total, stale = o.total, 0
			if total <= 0 {
				return sync(steps, StopQuiescent)
			}
		}
		target := gen.Float64() * total
		fired := -1
		if sums == nil {
			// Narrow kernel: flat fold-left scan, inlined (the lambda
			// races' hottest instruction sequence).
			acc := 0.0
			for c, p := range o.prop {
				acc += p
				if target < acc {
					fired = c
					break
				}
			}
		} else {
			fired = o.selectChannel(target)
		}
		if fired < 0 {
			// Drift artifact: the cached total exceeded the true sum.
			// Recompute exactly and redraw the selection, as Step does.
			o.recomputeAll()
			total, stale = o.total, 0
			if total <= 0 {
				return sync(steps, StopQuiescent)
			}
			target = gen.Float64() * total
			fired = o.selectChannel(target)
			if fired < 0 {
				return sync(steps, StopQuiescent)
			}
		}
		// chem.Compiled.FireAndRefresh, manually inlined so st, prop and
		// total stay in registers across the whole event body (~7% of
		// race throughput). TestRaceRefreshLockstep pins the two
		// implementations to the same bit-exact refresh results; see
		// chem.RefreshInstr for the record's exactness argument.
		prop := o.prop
		for _, ins := range comp.Refs[comp.RefStart[fired]:comp.RefStart[fired+1]] {
			xA := st[ins.S1] + int64(ins.DA)
			xB := st[ins.S2] + int64(ins.DB)
			fA := xA + int64(ins.Dim)*(xA*(xA-1)>>1-xA)
			p := (ins.Rate * float64(fA)) * float64(xB)
			total += p - prop[ins.J]
			prop[ins.J] = p
		}
		for _, ins := range comp.FireDelta[comp.FireDeltaStart[fired]:comp.FireDeltaStart[fired+1]] {
			st[ins.S] += ins.D
		}
		if hasTails {
			for _, ins := range comp.Tails[comp.TailStart[fired]:comp.TailStart[fired+1]] {
				p := comp.Propensity(int(ins.J), st)
				total += p - prop[ins.J]
				prop[ins.J] = p
			}
		}
		if sums != nil {
			comp.RefreshBlockSums(fired, prop, sums)
		}
		stale++
		if stale >= o.refresh || total < 0 {
			o.total = total
			o.recomputeAll()
			total, stale = o.total, 0
		}
		steps++
		if reached(st, ths) {
			return sync(steps, StopPredicate)
		}
	}
}

// raceThresholds implements thresholdRacer for Direct: full recompute per
// event, jump-chain selection, no waiting-time draw.
//
//stochlint:noalloc
func (d *Direct) raceThresholds(ths []SpeciesThreshold, maxSteps int64) RunResult {
	var buf [8]SpeciesThreshold
	ths = localThresholds(&buf, ths)
	st := d.state
	if reached(st, ths) {
		return RunResult{Steps: 0, Time: d.t, Reason: StopPredicate}
	}
	comp := d.comp
	gen := d.gen
	var steps int64
	for {
		if maxSteps > 0 && steps >= maxSteps {
			return RunResult{Steps: steps, Time: d.t, Reason: StopSteps}
		}
		var total float64
		if d.sums != nil {
			total = comp.PropensitiesBlocksInto(st, d.prop, d.sums)
		} else {
			total = comp.PropensitiesInto(st, d.prop)
		}
		if total <= 0 {
			return RunResult{Steps: steps, Time: d.t, Reason: StopQuiescent}
		}
		target := gen.Float64() * total
		fired := -1
		if d.sums != nil {
			fired = comp.SelectBlock(d.prop, d.sums, target)
		} else {
			acc := 0.0
			for c, p := range d.prop {
				acc += p
				if target < acc {
					fired = c
					break
				}
			}
		}
		if fired < 0 {
			// Floating-point slack: fire the last positive channel.
			for c := len(d.prop) - 1; c >= 0; c-- {
				if d.prop[c] > 0 {
					fired = c
					break
				}
			}
			if fired < 0 {
				return RunResult{Steps: steps, Time: d.t, Reason: StopQuiescent}
			}
		}
		comp.Apply(fired, st)
		steps++
		if reached(st, ths) {
			return RunResult{Steps: steps, Time: d.t, Reason: StopPredicate}
		}
	}
}
