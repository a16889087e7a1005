package sim

import (
	"fmt"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// EngineKind names a simulation engine so callers (experiment constructors,
// the shard registry, command-line flags) can select one without linking
// against the concrete types.
type EngineKind string

// The engine lineup. See docs/engines.md for the exactness guarantee each
// kind carries and when to use it.
const (
	// EngineDirect is Gillespie's direct method: exact, recompute
	// everything, the reference implementation.
	EngineDirect EngineKind = "direct"
	// EngineOptimizedDirect is the direct method with a dependency graph:
	// exact, the default Monte Carlo workhorse.
	EngineOptimizedDirect EngineKind = "optimized"
	// EngineFirstReaction is Gillespie's first-reaction method: exact,
	// a cross-validation oracle.
	EngineFirstReaction EngineKind = "first-reaction"
	// EngineHybrid is the exact race plus analytic relays: exact in
	// distribution on every network, Direct draw for draw where no relay is
	// active, and orders of magnitude faster on clock-dominated networks.
	EngineHybrid EngineKind = "hybrid"
)

// EngineKinds lists every selectable kind, in documentation order.
func EngineKinds() []EngineKind {
	return []EngineKind{
		EngineDirect, EngineOptimizedDirect, EngineFirstReaction, EngineHybrid,
	}
}

// ParseEngineKind validates a user-supplied engine name. The empty string
// is accepted and returned as-is: it means "the caller's default".
func ParseEngineKind(s string) (EngineKind, error) {
	if s == "" {
		return "", nil
	}
	for _, k := range EngineKinds() {
		if EngineKind(s) == k {
			return k, nil
		}
	}
	return "", fmt.Errorf("sim: unknown engine %q (known: %v)", s, EngineKinds())
}

// MustEngineOfKindCompiled builds an engine of the given kind over an
// already-compiled kernel, sharing it instead of recompiling. A Compiled is
// immutable, so any number of engines (across goroutines) may share one.
// protected lists the outcome/threshold species a hybrid engine must keep
// exact; the exact engines ignore it. An empty kind defaults to
// EngineOptimizedDirect. It is the one place a kind becomes an engine:
// callers validate user input with ParseEngineKind first, and an unknown
// kind panics.
func MustEngineOfKindCompiled(kind EngineKind, comp *chem.Compiled, protected []chem.Species, gen *rng.PCG) Engine {
	switch kind {
	case EngineDirect:
		return NewDirectCompiled(comp, gen)
	case "", EngineOptimizedDirect:
		return NewOptimizedDirectCompiled(comp, gen)
	case EngineFirstReaction:
		return NewFirstReactionCompiled(comp, gen)
	case EngineHybrid:
		return NewHybridCompiled(comp, protected, gen)
	default:
		panic(fmt.Sprintf("sim: unknown engine kind %q", kind))
	}
}
