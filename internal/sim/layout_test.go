package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// engineSink keeps the engines of TestEngineHotVectorsOwnTheirBlocks on the
// heap, where Monte Carlo workers keep theirs.
var engineSink []Engine

// blockErr reports why a vector does not own whole 128-byte blocks: its
// data must start on a 128-byte boundary and its allocation (its capacity)
// must span a whole number of blocks.
func blockErr[E any](v []E) error {
	var zero E
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	size := uintptr(cap(v)) * unsafe.Sizeof(zero)
	if addr%128 != 0 || size%128 != 0 {
		return fmt.Errorf("%d elements at %#x in %d bytes", len(v), addr, size)
	}
	return nil
}

// layoutWideNet is a chain of 70 channels, past chem.BlockThreshold, so
// the Direct engines keep per-block partial sums.
func layoutWideNet() *chem.Network {
	net := chem.NewNetwork()
	b := chem.WrapBuilder(net)
	for i := 0; i < 70; i++ {
		b.Rxn("").In(fmt.Sprint("s", i), 1).Out(fmt.Sprint("s", i+1), 1).Rate(1)
	}
	net.SetInitialByName("s0", 100)
	return net
}

// TestEngineHotVectorsOwnTheirBlocks: the vectors each engine writes on
// every event (state, propensities, block sums, the hybrid's cumulative
// race total) and the generator it draws from each start on a 128-byte
// boundary and span whole 128-byte blocks, so two workers never share a
// cache line or a prefetch pair through them. The narrow network has 3
// species and 5 channels; the wide one has 71 species and 70 channels,
// with block sums.
func TestEngineHotVectorsOwnTheirBlocks(t *testing.T) {
	for name, net := range map[string]*chem.Network{"narrow": allocPinNet(), "wide": layoutWideNet()} {
		comp := chem.Compile(net)
		gen := rng.NewStream(3, 0)
		d := NewDirectCompiled(comp, gen)
		o := NewOptimizedDirectCompiled(comp, gen)
		f := NewFirstReactionCompiled(comp, gen)
		h := NewHybridCompiled(comp, nil, gen)
		engineSink = append(engineSink, d, o, f, h)
		if addr := uintptr(unsafe.Pointer(gen)); addr%128 != 0 {
			t.Errorf("%s: generator at %#x, not on a 128-byte boundary", name, addr)
		}
		vecs := map[string]error{
			"Direct.state":          blockErr(d.state),
			"Direct.prop":           blockErr(d.prop),
			"OptimizedDirect.state": blockErr(o.state),
			"OptimizedDirect.prop":  blockErr(o.prop),
			"FirstReaction.state":   blockErr(f.state),
			"Hybrid.state":          blockErr(h.state),
			"Hybrid.prop":           blockErr(h.prop),
			"Hybrid.cum":            blockErr(h.cum),
		}
		if name == "wide" {
			if d.sums == nil || o.sums == nil {
				t.Fatalf("%s: %d channels kept no block sums", name, comp.NumChannels())
			}
			vecs["Direct.sums"] = blockErr(d.sums)
			vecs["OptimizedDirect.sums"] = blockErr(o.sums)
		}
		for vec, err := range vecs {
			if err != nil {
				t.Errorf("%s: %s does not own whole 128-byte blocks: %v", name, vec, err)
			}
		}
	}
	engineSink = nil
}
