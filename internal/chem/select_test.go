package chem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stochsynth/internal/rng"
)

// wideRandomNetwork builds a random network with exactly numR reactions
// (numR should be >= BlockThreshold to exercise the block structure),
// mixing every closed-form opcode plus occasional generic channels, over
// enough species that dependency rows stay sparse.
func wideRandomNetwork(r *rand.Rand, numR int) *Network {
	net := NewNetwork()
	numSpecies := numR/2 + 4
	species := make([]Species, numSpecies)
	for i := range species {
		species[i] = net.AddSpecies(fmt.Sprintf("s%d", i))
		net.SetInitial(species[i], int64(5+r.Intn(60)))
	}
	sp := func() Species { return species[r.Intn(numSpecies)] }
	for i := 0; i < numR; i++ {
		var reactants []Term
		switch r.Intn(10) {
		case 0: // source
		case 1, 2, 3, 4: // conversion/decay (linear): the wide-network common case
			reactants = []Term{{sp(), 1}}
		case 5, 6: // bimolecular
			reactants = []Term{{sp(), 1}, {sp(), 1}}
		case 7: // homodimer
			reactants = []Term{{sp(), 2}}
		case 8: // homotrimer
			reactants = []Term{{sp(), 3}}
		default: // generic
			reactants = []Term{{sp(), int64(4 + r.Intn(2))}}
		}
		var products []Term
		for p := r.Intn(3); p > 0; p-- {
			products = append(products, Term{sp(), 1})
		}
		rate := r.Float64() * math.Pow(10, float64(r.Intn(5)-2))
		net.AddReaction("", reactants, products, rate)
	}
	return net
}

// TestBlockStructure pins the deterministic block sizing rule (smallest
// power-of-two width whose square covers M, blocks iff M >= BlockThreshold)
// and that each DepBlockList row is exactly the distinct blocks of the
// channel's dependency row.
func TestBlockStructure(t *testing.T) {
	r := rand.New(rand.NewSource(0xb10c))
	cases := []struct {
		numR        int
		wantShift   uint
		wantNumBlks int
	}{
		{63, 0, 0},   // below threshold: linear selection
		{64, 3, 8},   // √64 = 8
		{100, 4, 7},  // smallest power of two ≥ 10 is 16; ceil(100/16) = 7
		{256, 4, 16}, // √256 = 16
	}
	for _, tc := range cases {
		c := Compile(wideRandomNetwork(r, tc.numR))
		if c.NumSelectBlocks() != tc.wantNumBlks || c.BlockShift != tc.wantShift {
			t.Fatalf("M=%d: got %d blocks shift %d, want %d blocks shift %d",
				tc.numR, c.NumSelectBlocks(), c.BlockShift, tc.wantNumBlks, tc.wantShift)
		}
		if tc.wantNumBlks == 0 {
			if c.DepBlockStart != nil || c.DepBlockList != nil {
				t.Fatalf("M=%d: narrow kernel grew block rows", tc.numR)
			}
			continue
		}
		for ch := 0; ch < c.NumChannels(); ch++ {
			want := map[int32]bool{}
			for _, j := range c.Deps(ch) {
				want[j>>c.BlockShift] = true
			}
			row := c.DepBlockList[c.DepBlockStart[ch]:c.DepBlockStart[ch+1]]
			if len(row) != len(want) {
				t.Fatalf("M=%d ch=%d: block row %v does not match dependency blocks %v", tc.numR, ch, row, want)
			}
			for i, b := range row {
				if !want[b] {
					t.Fatalf("M=%d ch=%d: block row contains %d, not a dependency block", tc.numR, ch, b)
				}
				if i > 0 && row[i-1] >= b {
					t.Fatalf("M=%d ch=%d: block row %v not strictly ascending", tc.numR, ch, row)
				}
			}
		}
	}
}

// TestSelectBlockLockstep is the selection lockstep property: along random
// jump-chain walks on wide networks,
//
//   - incrementally maintained block sums (RefreshBlockSums after each
//     FireAndRefresh) stay bitwise identical to a full rebuild,
//   - PropensitiesBlocksInto's prop/sums ≡ PropensitiesInto +
//     BlockSumsInto bitwise, and its total is the fold over block sums
//     (the canonical wide-kernel total),
//   - SelectBlock over the maintained sums picks the identical channel as
//     the O(M) reference SelectChannel for the same uniform target, for
//     every target tried.
func TestSelectBlockLockstep(t *testing.T) {
	r := rand.New(rand.NewSource(0x10c5))
	for _, numR := range []int{64, 100, 256} {
		for rep := 0; rep < 3; rep++ {
			net := wideRandomNetwork(r, numR)
			c := Compile(net)
			gen := rng.New(uint64(numR)<<8 | uint64(rep))

			st := c.NewStateVec()
			copy(st, net.InitialState())
			prop := make([]float64, numR)
			inc := make([]float64, c.NumSelectBlocks())     // maintained incrementally
			rebuilt := make([]float64, c.NumSelectBlocks()) // rebuilt every event
			prop2 := make([]float64, numR)
			prop3 := make([]float64, numR)
			sums2 := make([]float64, c.NumSelectBlocks())
			total := c.PropensitiesInto(st, prop)
			c.BlockSumsInto(prop, inc)

			for ev := 0; ev < 400; ev++ {
				total2 := c.PropensitiesBlocksInto(st[:c.NumSpecies()], prop2, sums2)
				c.PropensitiesInto(st[:c.NumSpecies()], prop3)
				for j := range prop2 {
					if math.Float64bits(prop2[j]) != math.Float64bits(prop3[j]) {
						t.Fatalf("M=%d ev=%d ch=%d: PropensitiesBlocksInto prop diverges from PropensitiesInto",
							numR, ev, j)
					}
				}
				foldSums := 0.0
				for _, s := range sums2 {
					foldSums += s
				}
				if math.Float64bits(total2) != math.Float64bits(foldSums) {
					t.Fatalf("M=%d ev=%d: PropensitiesBlocksInto total %v != fold over block sums %v",
						numR, ev, total2, foldSums)
				}
				c.BlockSumsInto(prop, rebuilt)
				for k := range rebuilt {
					if math.Float64bits(inc[k]) != math.Float64bits(rebuilt[k]) {
						t.Fatalf("M=%d ev=%d block=%d: incremental sum %v != rebuilt %v",
							numR, ev, k, inc[k], rebuilt[k])
					}
					if math.Float64bits(sums2[k]) != math.Float64bits(rebuilt[k]) {
						t.Fatalf("M=%d ev=%d block=%d: PropensitiesBlocksInto sum %v != BlockSumsInto %v",
							numR, ev, k, sums2[k], rebuilt[k])
					}
				}

				freshTotal := 0.0
				for _, a := range prop {
					freshTotal += a
				}
				if freshTotal <= 0 {
					break // walked into quiescence
				}
				// Several targets per event, including the drift edges.
				for trial := 0; trial < 8; trial++ {
					u := gen.Float64()
					target := u * total
					if trial == 7 {
						target = total * 1.0000001 // past the end: both must exhaust
					}
					a := c.SelectBlock(prop, inc, target)
					b := c.SelectChannel(prop, target)
					if a != b {
						t.Fatalf("M=%d ev=%d target=%v: SelectBlock=%d SelectChannel=%d",
							numR, ev, target, a, b)
					}
				}
				fired := c.SelectChannel(prop, gen.Float64()*total)
				if fired < 0 {
					total = c.PropensitiesInto(st[:c.NumSpecies()], prop)
					c.BlockSumsInto(prop, inc)
					continue
				}
				total = c.FireAndRefresh(fired, st, prop, total)
				c.RefreshBlockSums(fired, prop, inc)
			}
		}
	}
}

// TestSelectChannelNarrowIsLinearScan: below BlockThreshold, SelectChannel
// must be the historical flat fold-left scan.
func TestSelectChannelNarrowIsLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	net := randomNetwork(r)
	c := Compile(net)
	prop := make([]float64, c.NumChannels())
	st := randomState(r, net.NumSpecies())
	total := c.PropensitiesInto(st, prop)
	gen := rng.New(77)
	for i := 0; i < 200; i++ {
		target := gen.Float64() * total
		want := -1
		acc := 0.0
		for j, a := range prop {
			acc += a
			if target < acc {
				want = j
				break
			}
		}
		if got := c.SelectChannel(prop, target); got != want {
			t.Fatalf("target %v: SelectChannel=%d, linear scan=%d", target, got, want)
		}
	}
}

// TestCompileAtOrdersByCharacteristicState: a channel quiet at the default
// initial state but hot at the characteristic state must lead the compiled
// order under CompileAt (and trail it under Compile).
func TestCompileAtOrdersByCharacteristicState(t *testing.T) {
	b := NewBuilder()
	b.Init("a", 10)
	b.Init("d", 0) // dosed per trial
	b.Rxn("background").In("a", 1).Out("b", 1).Rate(0.01)
	b.Rxn("cascade").In("d", 1).Out("x", 1).Rate(0.001)
	net := b.Network()

	dosed := net.InitialState()
	dosed.Set(net.MustSpecies("d"), 1000)

	def := Compile(net)
	if def.Reaction(0).Label != "background" {
		t.Fatalf("default ordering: want background first, got %q", def.Reaction(0).Label)
	}
	at := CompileAt(net, dosed)
	if at.Reaction(0).Label != "cascade" {
		t.Fatalf("CompileAt ordering: want cascade first, got %q", at.Reaction(0).Label)
	}
	if at.OrderProp[0] != 1.0 { // 0.001 × 1000
		t.Fatalf("OrderProp[0] = %v, want dosed propensity 1", at.OrderProp[0])
	}
}

// TestCompilePilotDeterministic: the pilot ordering is a pure function of
// the network — identical Perm on repeated compiles — and OrderProp holds
// the pilot means (non-negative, not all zero on a live network).
func TestCompilePilotDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(0x9109))
	net := wideRandomNetwork(r, 72)
	c1 := CompilePilot(net, 512)
	c2 := CompilePilot(net, 512)
	some := false
	for ch := range c1.Perm {
		if c1.Perm[ch] != c2.Perm[ch] {
			t.Fatalf("pilot ordering not deterministic at channel %d: %d vs %d", ch, c1.Perm[ch], c2.Perm[ch])
		}
		if c1.OrderProp[ch] < 0 {
			t.Fatalf("negative pilot mean at channel %d", ch)
		}
		if c1.OrderProp[ch] > 0 {
			some = true
		}
	}
	if !some {
		t.Fatal("pilot means all zero on a live network")
	}
	// Descending by pilot mean, modulo the tie rules.
	for ch := 1; ch < len(c1.OrderProp); ch++ {
		if c1.OrderProp[ch] > c1.OrderProp[ch-1] {
			t.Fatalf("pilot ordering not descending at channel %d: %v > %v",
				ch, c1.OrderProp[ch], c1.OrderProp[ch-1])
		}
	}
}

// TestSelectionZeroAlloc pins the new hot paths at zero allocations.
func TestSelectionZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(0xa110c))
	net := wideRandomNetwork(r, 128)
	c := Compile(net)
	st := net.InitialState()
	prop := make([]float64, c.NumChannels())
	sums := make([]float64, c.NumSelectBlocks())
	total := c.PropensitiesBlocksInto(st, prop, sums)
	target := 0.5 * total

	pins := []struct {
		name string
		f    func()
	}{
		{"PropensitiesBlocksInto", func() { c.PropensitiesBlocksInto(st, prop, sums) }},
		{"BlockSumsInto", func() { c.BlockSumsInto(prop, sums) }},
		{"RefreshBlockSums", func() { c.RefreshBlockSums(0, prop, sums) }},
		{"SelectBlock", func() { c.SelectBlock(prop, sums, target) }},
		{"SelectChannel", func() { c.SelectChannel(prop, target) }},
	}
	for _, p := range pins {
		if n := testing.AllocsPerRun(200, p.f); n != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", p.name, n)
		}
	}
}
