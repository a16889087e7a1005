package chem

import "sort"

// This file is the compiled reaction kernel: Compile lowers a Network into
// an immutable flat structure-of-arrays representation that simulation
// engines run on instead of chasing pointers through []Reaction / []Term
// slices. One Compiled is built per engine construction and shared across
// every Monte Carlo trial the engine is Reset for; it is never mutated
// after Compile returns, so many engines (one per worker) may share a
// single Compiled concurrently.
//
// Lowering performs three transformations:
//
//   - Term packing: reactant terms become CSR arrays (per-channel offset
//     slices into flat species/coefficient arrays) and net state deltas
//     packed per-channel rows, so Propensity and Apply touch contiguous
//     memory with no per-reaction slice headers.
//   - Propensity opcodes: each channel is classified once into a small
//     opcode (const / linear / bilinear / dimer / trimer / generic) so the
//     per-step propensity evaluation is a branch-predictable switch whose
//     arithmetic reproduces Propensity bit for bit — including the
//     x < coeff zero cutoff and the generic binomialFloat path.
//   - Channel ordering: channels are statically reordered (see Compile)
//     so that selection scans over the propensity vector terminate early
//     on skewed networks. Perm maps compiled channel → original reaction
//     index; engines report fired reactions through it, so the reordering
//     is invisible to callers.
type Compiled struct {
	net *Network

	// Perm[c] is the original reaction index of compiled channel c;
	// Channel[i] is the compiled channel of original reaction i. Both are
	// permutations of [0, NumChannels).
	Perm    []int32
	Channel []int32

	// Op, Rate and the operand species S1/S2 drive the propensity switch.
	// S1/S2 are -1 where the opcode does not use them.
	Op   []PropOp
	Rate []float64
	S1   []int32
	S2   []int32

	// Reactant terms in CSR form: channel c's terms are
	// ReactSpecies/ReactCoeff[ReactStart[c]:ReactStart[c+1]], sorted by
	// species (the Reaction.Reactants order).
	ReactStart   []int32
	ReactSpecies []int32
	ReactCoeff   []int64

	// Dependency graph in CSR form, in compiled channel indices: after
	// channel c fires, the propensities of channels
	// DepList[DepStart[c]:DepStart[c+1]] (sorted ascending) may have
	// changed. Mirrors DependencyGraph, so a pure catalyst is not in its
	// own row.
	DepStart []int32
	DepList  []int32

	// Packed per-channel fire programs. Firing channel c applies the net
	// state deltas FireDelta[FireDeltaStart[c]:FireDeltaStart[c+1]], in
	// species order; species with zero net change (catalysts) carry no
	// entry. The dependent-refresh rows are the dependency rows above with
	// every operand pre-gathered into sequential records, so
	// FireAndRefresh streams one contiguous program instead of
	// index-chasing through the SoA columns.
	//
	// Linear, bilinear and dimer dependents (the overwhelmingly common
	// cases) lower onto one *branchless* unified record (see RefreshInstr)
	// evaluated against a state vector carrying a phantom always-one count
	// in its last slot (NewStateVec); trimer and generic dependents go to
	// the rare dispatching tail row. Const channels have no reactants, so
	// they never appear as anyone's dependent.
	FireDeltaStart []int32
	FireDelta      []DeltaInstr
	RefStart       []int32
	Refs           []RefreshInstr
	TailStart      []int32
	Tails          []TailInstr

	// OrderProp[ch] is channel ch's propensity at the ordering state the
	// kernel was compiled against (the default initial state for Compile,
	// the caller's characteristic state for CompileAt, the pilot-chain mean
	// for CompilePilot), in compiled channel order. It is the static skew
	// estimate behind the channel ordering.
	OrderProp []float64

	// Two-level selection-block structure, built iff NumChannels() >=
	// BlockThreshold (see select.go): channels are grouped into contiguous
	// blocks of width 1<<BlockShift, and the DepBlockList CSR rows (indexed
	// like DepList) name the blocks whose partial sums a firing may perturb.
	BlockShift    uint
	numBlocks     int
	DepBlockStart []int32
	DepBlockList  []int32
}

// DeltaInstr is one packed state update: st[S] += D.
type DeltaInstr struct {
	S int32
	D int64
}

// RefreshInstr is one branchless packed dependent refresh. Against an
// extended state vector (NewStateVec, whose last slot holds the constant
// 1), it recomputes channel J's propensity as
//
//	xA := st[S1] + DA
//	xB := st[S2] + DB
//	fA := xA + Dim·(xA·(xA−1)/2 − xA)      // integer arithmetic
//	a  := (Rate · float64(fA)) · float64(xB)
//
// DA/DB are the fired channel's state deltas of the operand species, baked
// in at compile time so the refresh reads the *pre-fire* state — the
// record stream is then independent of the delta-apply store stream, and
// the two overlap instead of forwarding through memory.
//
// The formula reproduces Propensity's float operation order bit for bit
// for each lowered law: linear (Dim=0, S2=phantom) gives Rate·x·1 = Rate·x;
// bilinear (Dim=0) gives (Rate·x1)·x2; dimer (Dim=1, S2=phantom) forms
// x(x−1)/2 exactly in integers and rounds once at the rate multiply, like
// Rate·(x·(x−1)/2). The zero cutoffs fall out of multiplication by a zero
// count. (For counts beyond 2²⁶ a dimer's integer x(x−1)/2 is *more*
// accurate than Propensity's float product — and valid only to x ≈ 3×10⁹,
// where x(x−1) saturates int64; below 2²⁶ — any realistic molecule
// count — the two are bit-identical.)
type RefreshInstr struct {
	J    int32
	S1   int32
	S2   int32
	DA   int32 // delta of st[S1] when the owning channel fires
	DB   int32 // delta of st[S2] when the owning channel fires
	Dim  int32
	Rate float64
}

// TailInstr is one rare-opcode (trimer/generic) dependent refresh,
// dispatched by Op.
type TailInstr struct {
	J  int32
	Op PropOp
}

// PropOp classifies one channel's propensity law. The arithmetic of each
// opcode reproduces Propensity exactly (same operation order, same zero
// cutoff), so compiled engines are bit-for-bit identical to term-walking
// ones.
type PropOp uint8

// The opcode set. Channels that fit none of the closed forms fall back to
// OpGeneric, a CSR walk with binomial coefficients — the exact loop of
// Propensity over flat arrays.
const (
	// OpConst: no reactants; a = k.
	OpConst PropOp = iota
	// OpLinear: one unit reactant; a = k·x.
	OpLinear
	// OpBilinear: two distinct unit reactants; a = (k·x1)·x2.
	OpBilinear
	// OpDimer: one reactant with coefficient 2; a = k·(x(x−1)/2).
	OpDimer
	// OpTrimer: one reactant with coefficient 3; a = k·(x(x−1)(x−2)/6).
	OpTrimer
	// OpGeneric: arbitrary terms; product of binomial coefficients.
	OpGeneric
)

func (op PropOp) String() string {
	switch op {
	case OpConst:
		return "const"
	case OpLinear:
		return "linear"
	case OpBilinear:
		return "bilinear"
	case OpDimer:
		return "dimer"
	case OpTrimer:
		return "trimer"
	case OpGeneric:
		return "generic"
	default:
		return "unknown"
	}
}

// Compile lowers net with static propensity-descending channel ordering:
// channels are sorted by their propensity at the network's default initial
// state (descending), ties broken by rate constant (descending) and then
// original index, so selection scans over skewed networks terminate early.
// The ordering is a deterministic function of the network alone; engines
// map fired channels back through Perm, so only the last-bit floating-point
// accumulation order of propensity totals — not any distribution — depends
// on it.
func Compile(net *Network) *Compiled {
	a0 := statePropensities(net, net.InitialState())
	return compileOrdered(net, propensityOrderFrom(net, a0), a0)
}

// CompileIdentity lowers net with the identity channel ordering, restoring
// the pre-kernel propensity scan and summation order for callers that need
// it (per-channel propensity values are bit-identical under either
// ordering; see docs/engines.md for the precise float caveats).
func CompileIdentity(net *Network) *Compiled {
	order := make([]int, net.NumReactions())
	for i := range order {
		order[i] = i
	}
	return compileOrdered(net, order, statePropensities(net, net.InitialState()))
}

// statePropensities evaluates every reaction's propensity at st, indexed by
// original reaction.
func statePropensities(net *Network, st State) []float64 {
	a0 := make([]float64, net.NumReactions())
	for i := range a0 {
		a0[i] = Propensity(net.Reaction(i), st)
	}
	return a0
}

// propensityOrderFrom returns the descending ordering of net's reactions by
// the supplied per-reaction propensity estimates (original indices).
func propensityOrderFrom(net *Network, a0 []float64) []int {
	order := make([]int, net.NumReactions())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if a0[i] != a0[j] {
			return a0[i] > a0[j]
		}
		// Channels quiet at the initial state (the common case for dosed
		// networks whose inputs are installed per trial) are ranked by rate
		// constant — a crude but deterministic proxy for mid-trial flux.
		if ri, rj := net.Reaction(i).Rate, net.Reaction(j).Rate; ri != rj {
			return ri > rj
		}
		return i < j
	})
	return order
}

func compileOrdered(net *Network, order []int, a0 []float64) *Compiled {
	numR := net.NumReactions()
	if len(order) != numR || len(a0) != numR {
		panic("chem: compile ordering length does not match reaction count")
	}
	c := &Compiled{
		net:            net,
		Perm:           make([]int32, numR),
		Channel:        make([]int32, numR),
		Op:             make([]PropOp, numR),
		Rate:           make([]float64, numR),
		S1:             make([]int32, numR),
		S2:             make([]int32, numR),
		ReactStart:     make([]int32, numR+1),
		FireDeltaStart: make([]int32, numR+1),
		DepStart:       make([]int32, numR+1),
		OrderProp:      make([]float64, numR),
	}
	seen := make([]bool, numR)
	for ch, i := range order {
		if i < 0 || i >= numR || seen[i] {
			panic("chem: compile ordering is not a permutation")
		}
		seen[i] = true
		c.Perm[ch] = int32(i)
		c.Channel[i] = int32(ch)
	}

	for ch := 0; ch < numR; ch++ {
		r := net.Reaction(int(c.Perm[ch]))
		c.Rate[ch] = r.Rate
		c.OrderProp[ch] = a0[c.Perm[ch]]
		c.S1[ch], c.S2[ch] = -1, -1
		c.Op[ch] = classifyOp(r)
		switch c.Op[ch] {
		case OpLinear, OpDimer, OpTrimer:
			c.S1[ch] = int32(r.Reactants[0].Species)
		case OpBilinear:
			c.S1[ch] = int32(r.Reactants[0].Species)
			c.S2[ch] = int32(r.Reactants[1].Species)
		}

		for _, t := range r.Reactants {
			c.ReactSpecies = append(c.ReactSpecies, int32(t.Species))
			c.ReactCoeff = append(c.ReactCoeff, t.Coeff)
		}
		c.ReactStart[ch+1] = int32(len(c.ReactSpecies))

		for s, d := range Delta(r, net.NumSpecies()) {
			if d != 0 {
				c.FireDelta = append(c.FireDelta, DeltaInstr{S: int32(s), D: d})
			}
		}
		c.FireDeltaStart[ch+1] = int32(len(c.FireDelta))
	}

	// Dependency graph, remapped into compiled channel indices and re-sorted
	// so each row is scanned in ascending compiled order.
	deps := DependencyGraph(net)
	row := make([]int32, 0, numR)
	for ch := 0; ch < numR; ch++ {
		row = row[:0]
		for _, j := range deps[c.Perm[ch]] {
			row = append(row, c.Channel[j])
		}
		sort.Slice(row, func(x, y int) bool { return row[x] < row[y] })
		c.DepList = append(c.DepList, row...)
		c.DepStart[ch+1] = int32(len(c.DepList))
	}

	c.packFirePrograms()
	c.buildBlocks()
	return c
}

// packFirePrograms lowers the dependency rows into the packed refresh
// programs FireAndRefresh streams.
func (c *Compiled) packFirePrograms() {
	numR := c.NumChannels()
	c.RefStart = make([]int32, numR+1)
	c.TailStart = make([]int32, numR+1)

	phantom := int32(c.NumSpecies()) // always-one slot of NewStateVec
	delta := make([]int64, c.NumSpecies()+1)
	for ch := 0; ch < numR; ch++ {
		row := c.FireDelta[c.FireDeltaStart[ch]:c.FireDeltaStart[ch+1]]
		for _, ins := range row {
			delta[ins.S] = ins.D
		}
		for k := c.DepStart[ch]; k < c.DepStart[ch+1]; k++ {
			j := c.DepList[k]
			ins := RefreshInstr{J: j, S1: c.S1[j], S2: phantom, Rate: c.Rate[j]}
			switch c.Op[j] {
			case OpLinear:
			case OpBilinear:
				ins.S2 = c.S2[j]
			case OpDimer:
				ins.Dim = 1
			default:
				c.Tails = append(c.Tails, TailInstr{J: j, Op: c.Op[j]})
				continue
			}
			dA, dB := delta[ins.S1], delta[ins.S2]
			if int64(int32(dA)) != dA || int64(int32(dB)) != dB {
				// Coefficient too large for the packed record: fall back to
				// a post-state tail recompute, which is always correct.
				c.Tails = append(c.Tails, TailInstr{J: j, Op: c.Op[j]})
				continue
			}
			ins.DA = int32(dA)
			ins.DB = int32(dB)
			c.Refs = append(c.Refs, ins)
		}
		c.RefStart[ch+1] = int32(len(c.Refs))
		c.TailStart[ch+1] = int32(len(c.Tails))
		for _, ins := range row {
			delta[ins.S] = 0
		}
	}

}

// NewStateVec allocates the extended state vector the packed refresh
// programs evaluate against: one slot per species plus a trailing phantom
// slot holding the constant 1 (the multiplicative identity operand of
// linear and dimer refresh records). Engines own the full slice internally,
// reset only the species prefix, and expose State as st[:NumSpecies].
func (c *Compiled) NewStateVec() State {
	st := NewHotVec[int64](c.NumSpecies() + 1)
	st[c.NumSpecies()] = 1
	return st
}

// hotBlock is the span of an adjacent-line prefetch pair: two 64-byte
// cache lines, which many cores fetch and lose together.
const hotBlock = 128

// NewHotVec allocates a zeroed vector of n elements for an engine to write
// on every event (its state, propensities and partial sums), rounded up to
// whole 128-byte blocks. Go places an allocation of 128·k bytes on a
// 128-byte boundary, so the vector shares no line, and no prefetch pair,
// with anything another worker reads or writes: otherwise each event's
// write would pull the line away from the core reading its neighbour.
func NewHotVec[E int64 | float64](n int) []E {
	const per = hotBlock / 8
	return make([]E, n, (n+per-1)/per*per)
}

// classifyOp picks the cheapest opcode whose arithmetic matches Propensity
// for r.
func classifyOp(r *Reaction) PropOp {
	switch len(r.Reactants) {
	case 0:
		return OpConst
	case 1:
		switch r.Reactants[0].Coeff {
		case 1:
			return OpLinear
		case 2:
			return OpDimer
		case 3:
			return OpTrimer
		}
	case 2:
		if r.Reactants[0].Coeff == 1 && r.Reactants[1].Coeff == 1 {
			return OpBilinear
		}
	}
	return OpGeneric
}

// Network returns the source network.
func (c *Compiled) Network() *Network { return c.net }

// NumChannels returns the number of compiled channels (== reactions).
func (c *Compiled) NumChannels() int { return len(c.Op) }

// NumSpecies returns the species count of the source network.
func (c *Compiled) NumSpecies() int { return c.net.NumSpecies() }

// Reaction returns the original reaction of compiled channel ch, for
// callers that need labels or term metadata off the hot path.
func (c *Compiled) Reaction(ch int) *Reaction { return c.net.Reaction(int(c.Perm[ch])) }

// Propensity evaluates channel ch's propensity in state st, bit-for-bit
// identical to Propensity(c.Reaction(ch), st).
func (c *Compiled) Propensity(ch int, st State) float64 {
	switch c.Op[ch] {
	case OpConst:
		return c.Rate[ch]
	case OpLinear:
		x := st[c.S1[ch]]
		if x < 1 {
			return 0
		}
		return c.Rate[ch] * float64(x)
	case OpBilinear:
		x := st[c.S1[ch]]
		if x < 1 {
			return 0
		}
		y := st[c.S2[ch]]
		if y < 1 {
			return 0
		}
		return c.Rate[ch] * float64(x) * float64(y)
	case OpDimer:
		x := st[c.S1[ch]]
		if x < 2 {
			return 0
		}
		return c.Rate[ch] * (float64(x) * float64(x-1) / 2)
	case OpTrimer:
		x := st[c.S1[ch]]
		if x < 3 {
			return 0
		}
		return c.Rate[ch] * (float64(x) * float64(x-1) * float64(x-2) / 6)
	default:
		return c.genericPropensity(ch, st)
	}
}

// genericPropensity is the CSR transliteration of Propensity's term loop.
func (c *Compiled) genericPropensity(ch int, st State) float64 {
	a := c.Rate[ch]
	for k := c.ReactStart[ch]; k < c.ReactStart[ch+1]; k++ {
		x := st[c.ReactSpecies[k]]
		nu := c.ReactCoeff[k]
		if x < nu {
			return 0
		}
		switch nu {
		case 1:
			a *= float64(x)
		case 2:
			a *= float64(x) * float64(x-1) / 2
		case 3:
			a *= float64(x) * float64(x-1) * float64(x-2) / 6
		default:
			a *= binomialFloat(x, nu)
		}
	}
	return a
}

// fillPropensities evaluates every channel's propensity into prop without
// accumulating a total: the stores are independent, so the loop is pure
// throughput with no serial float dependency chain. Callers that need a
// total fold over prop afterwards in whichever association their stream
// contract pins (flat fold-left for PropensitiesInto, fold over block sums
// for PropensitiesBlocksInto).
//
//stochlint:noalloc
func (c *Compiled) fillPropensities(st State, prop []float64) {
	op, rate, s1, s2 := c.Op, c.Rate, c.S1, c.S2
	for ch := range op {
		var a float64
		switch op[ch] {
		case OpConst:
			a = rate[ch]
		case OpLinear:
			if x := st[s1[ch]]; x >= 1 {
				a = rate[ch] * float64(x)
			}
		case OpBilinear:
			if x := st[s1[ch]]; x >= 1 {
				if y := st[s2[ch]]; y >= 1 {
					a = rate[ch] * float64(x) * float64(y)
				}
			}
		case OpDimer:
			if x := st[s1[ch]]; x >= 2 {
				a = rate[ch] * (float64(x) * float64(x-1) / 2)
			}
		case OpTrimer:
			if x := st[s1[ch]]; x >= 3 {
				a = rate[ch] * (float64(x) * float64(x-1) * float64(x-2) / 6)
			}
		default:
			a = c.genericPropensity(ch, st)
		}
		prop[ch] = a
	}
}

// PropensitiesInto evaluates every channel's propensity into prop (which
// must have length NumChannels) and returns their sum, accumulated flat in
// channel order — the same operation sequence as calling Propensity per
// channel and summing, so totals are bit-for-bit reproducible. This is the
// full-refresh form for narrow kernels, whose flat fold-left total is
// pinned by the golden trajectory streams; wide kernels with selection
// blocks refresh through PropensitiesBlocksInto instead, whose total folds
// over block sums (see there).
//
//stochlint:noalloc
func (c *Compiled) PropensitiesInto(st State, prop []float64) float64 {
	c.fillPropensities(st, prop)
	total := 0.0
	for _, a := range prop {
		total += a
	}
	return total
}

// FireAndRefresh fires channel ch — applies its delta row to st — and
// then recomputes the propensities of ch's dependents into prop, updating
// the running total (one total += a_new − a_old per dependent, in
// dependency order). It returns the updated total. Like Apply, it assumes
// the caller has established applicability. st must be an *extended* state
// vector from NewStateVec: the packed refresh records read its trailing
// phantom slot as their multiplicative identity operand.
//
//stochlint:noalloc
func (c *Compiled) FireAndRefresh(ch int, st State, prop []float64, total float64) float64 {
	// One branchless loop over the unified refresh records (RefreshInstr
	// documents the formula and its exactness): the records carry the
	// fired channel's operand deltas (DA/DB), so they read the *pre-fire*
	// state and run independently of the delta-apply stores that follow.
	// This body is manually inlined in OptimizedDirect.raceThresholds —
	// keep the two in lockstep.
	for _, ins := range c.Refs[c.RefStart[ch]:c.RefStart[ch+1]] {
		xA := st[ins.S1] + int64(ins.DA)
		xB := st[ins.S2] + int64(ins.DB)
		fA := xA + int64(ins.Dim)*(xA*(xA-1)>>1-xA)
		a := (ins.Rate * float64(fA)) * float64(xB)
		total += a - prop[ins.J]
		prop[ins.J] = a
	}
	for _, ins := range c.FireDelta[c.FireDeltaStart[ch]:c.FireDeltaStart[ch+1]] {
		st[ins.S] += ins.D
	}
	// Rare trimer/generic dependents recompute on the post-fire state.
	if len(c.Tails) > 0 {
		for _, ins := range c.Tails[c.TailStart[ch]:c.TailStart[ch+1]] {
			var a float64
			switch ins.Op {
			case OpTrimer:
				if x := st[c.S1[ins.J]]; x >= 3 {
					a = c.Rate[ins.J] * (float64(x) * float64(x-1) * float64(x-2) / 6)
				}
			default:
				a = c.genericPropensity(int(ins.J), st)
			}
			total += a - prop[ins.J]
			prop[ins.J] = a
		}
	}
	return total
}

// Apply fires channel ch once by sweeping its packed delta row. It assumes the
// caller has established applicability (a positive propensity implies
// sufficient reactants); unlike State.Apply it performs no negative-count
// check, so it is only for engine hot paths.
//
//stochlint:noalloc
func (c *Compiled) Apply(ch int, st State) {
	for _, ins := range c.FireDelta[c.FireDeltaStart[ch]:c.FireDeltaStart[ch+1]] {
		st[ins.S] += ins.D
	}
}

// CanFire reports whether st holds enough reactants for one firing of
// channel ch.
func (c *Compiled) CanFire(ch int, st State) bool {
	for k := c.ReactStart[ch]; k < c.ReactStart[ch+1]; k++ {
		if st[c.ReactSpecies[k]] < c.ReactCoeff[k] {
			return false
		}
	}
	return true
}

// Deps returns the compiled-channel dependency row of ch: the channels
// whose propensity may change when ch fires. The returned slice aliases the
// kernel's storage; callers must not mutate it.
func (c *Compiled) Deps(ch int) []int32 {
	return c.DepList[c.DepStart[ch]:c.DepStart[ch+1]]
}
