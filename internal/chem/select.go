package chem

// Two-level block-sum channel selection.
//
// Selecting the firing channel from a cumulative target is O(M) with the
// linear scan — acceptable for the narrow networks the paper synthesises,
// but the dominant per-event cost on wide ones. For kernels at or above
// BlockThreshold channels, Compile additionally groups the channels into
// contiguous blocks of width 1<<BlockShift (the smallest power of two ≥ √M)
// and engines maintain a vector of per-block partial sums alongside the
// propensity vector. Selection is then a scan over the ~√M block sums
// followed by a scan inside the one chosen block: O(√M) adds per event
// instead of O(M).
//
// The exactness story is the same block-local accumulation discipline
// everywhere:
//
//   - A block's partial sum is ALWAYS the fold-left sum of its channels'
//     propensities, recomputed from zero — never adjusted by a delta. So a
//     sums vector maintained incrementally (RefreshBlockSums after each
//     firing, touching only the DepBlockList row) is bitwise identical to
//     a full rebuild (BlockSumsInto), with no drift to renormalise.
//   - SelectBlock and the O(M) reference SelectChannel perform the
//     identical sequence of float comparisons and additions, so given the
//     same propensity vector and target they return the same channel —
//     pinned along random walks by TestSelectBlockLockstep.
//
// Selection against the block sums is NOT bit-identical to the historical
// flat fold-left scan (float addition is not associative), which is why the
// structure only engages at BlockThreshold: every bitwise-pinned stream in
// the tree (golden wire fixtures, scenario pins, the lambda models) lives
// far below it, and wide kernels get a new — equally exact — canonical
// stream shared by every engine and the batched runner.

// BlockThreshold is the channel count at and above which Compile builds the
// two-level selection structure. Engines pick their selection path by
// NumSelectBlocks() > 0, so linear-vs-block is a deterministic function of
// the network alone.
const BlockThreshold = 64

// buildBlocks sizes the selection blocks and lowers the dependency rows
// into per-channel touched-block rows (DepBlockList CSR).
func (c *Compiled) buildBlocks() {
	numR := c.NumChannels()
	if numR < BlockThreshold {
		return
	}
	shift := uint(0)
	for (1<<shift)*(1<<shift) < numR {
		shift++
	}
	c.BlockShift = shift
	c.numBlocks = (numR + 1<<shift - 1) >> shift

	// DepBlockList row of ch = the distinct blocks containing ch's
	// dependents. DepList rows are sorted ascending, so each block row
	// comes out ascending too.
	c.DepBlockStart = make([]int32, numR+1)
	for ch := 0; ch < numR; ch++ {
		last := int32(-1)
		for _, j := range c.DepList[c.DepStart[ch]:c.DepStart[ch+1]] {
			if b := j >> shift; b != last {
				c.DepBlockList = append(c.DepBlockList, b)
				last = b
			}
		}
		c.DepBlockStart[ch+1] = int32(len(c.DepBlockList))
	}
}

// NumSelectBlocks returns the number of selection blocks, or 0 when the
// kernel is below BlockThreshold and engines should use the linear scan.
func (c *Compiled) NumSelectBlocks() int { return c.numBlocks }

// BlockSumsInto rebuilds every block's partial sum from prop. sums must
// have length NumSelectBlocks. Each block is accumulated fold-left from
// zero — the single canonical accumulation every other block-sum producer
// (RefreshBlockSums, PropensitiesBlocksInto) reproduces bitwise.
//
//stochlint:noalloc
func (c *Compiled) BlockSumsInto(prop, sums []float64) {
	shift := c.BlockShift
	for k := range sums {
		lo := k << shift
		hi := min(lo+1<<shift, len(prop))
		s := 0.0
		for _, a := range prop[lo:hi] {
			s += a
		}
		sums[k] = s
	}
}

// RefreshBlockSums recomputes the block sums that firing ch may have
// perturbed (the kernel's DepBlockList row), after the caller has refreshed
// prop itself (FireAndRefresh). Touched blocks are recomputed fold-left
// from zero, so an incrementally maintained sums vector stays bitwise
// identical to a BlockSumsInto rebuild.
//
//stochlint:noalloc
func (c *Compiled) RefreshBlockSums(ch int, prop, sums []float64) {
	shift := c.BlockShift
	for _, kb := range c.DepBlockList[c.DepBlockStart[ch]:c.DepBlockStart[ch+1]] {
		lo := int(kb) << shift
		hi := min(lo+1<<shift, len(prop))
		s := 0.0
		for _, a := range prop[lo:hi] {
			s += a
		}
		sums[int(kb)] = s
	}
}

// SelectBlock picks the firing channel for a cumulative target using the
// maintained block sums: an O(√M) scan over sums finds the block, a scan
// inside it finds the channel. Returns -1 when the target exhausts every
// block (floating-point drift of a cached total; callers keep their usual
// recompute-and-retry or last-positive fallbacks). When a block's fold-left
// inner sum falls short of acc+sums[k] by float slack, the scan falls
// through to the next block — SelectChannel mirrors that exactly.
//
//stochlint:noalloc
func (c *Compiled) SelectBlock(prop, sums []float64, target float64) int {
	shift := c.BlockShift
	acc := 0.0
	for k, s := range sums {
		if target < acc+s {
			inner := acc
			lo := k << shift
			hi := min(lo+1<<shift, len(prop))
			for j := lo; j < hi; j++ {
				inner += prop[j]
				if target < inner {
					return j
				}
			}
			// In-block float slack: fall through to the next block.
		}
		acc += s
	}
	return -1
}

// SelectChannel is the O(M) selection reference: for kernels below
// BlockThreshold it is the historical flat fold-left cumulative scan; at or
// above it, it performs SelectBlock's exact operation sequence with the
// block sums recomputed inline, so the two are bitwise interchangeable.
// Engines use the maintained-sums paths; this form exists for callers
// without a sums vector and as the lockstep-property oracle.
//
//stochlint:noalloc
func (c *Compiled) SelectChannel(prop []float64, target float64) int {
	if c.numBlocks == 0 {
		acc := 0.0
		for j, a := range prop {
			acc += a
			if target < acc {
				return j
			}
		}
		return -1
	}
	shift := c.BlockShift
	acc := 0.0
	for lo := 0; lo < len(prop); lo += 1 << shift {
		hi := min(lo+1<<shift, len(prop))
		s := 0.0
		for _, a := range prop[lo:hi] {
			s += a
		}
		if target < acc+s {
			inner := acc
			for j := lo; j < hi; j++ {
				inner += prop[j]
				if target < inner {
					return j
				}
			}
		}
		acc += s
	}
	return -1
}

// PropensitiesBlocksInto is the full-refresh form for kernels with
// selection blocks: prop and sums after one call are bitwise identical to
// PropensitiesInto + BlockSumsInto, and the returned grand total is the
// fold-left sum *over the block sums* — the canonical wide-kernel total
// every block-path refresher (Direct's per-event recompute,
// OptimizedDirect's reset and renormalisation, the fused races)
// reproduces bitwise. Folding over B ≈ √M block sums instead of flat over
// M channels breaks the one serial float-add chain that dominates wide
// full recomputes into B independent in-block chains the CPU pipelines;
// the association change is invisible below the threshold because narrow
// kernels (the only ones with pinned golden streams) never build blocks.
//
//stochlint:noalloc
func (c *Compiled) PropensitiesBlocksInto(st State, prop, sums []float64) float64 {
	c.fillPropensities(st, prop)
	c.BlockSumsInto(prop, sums)
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total
}
