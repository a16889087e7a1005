package lambda

import (
	"strings"
	"testing"

	"stochsynth/internal/chem"
)

// figure4 is the paper's synthetic model (Figure 4), with two
// reconciliations of the printed figure: reinforcing reactions produce 2d
// (per §2.1.1), and the e₁/e₂ roles are oriented so that the tracked cI₂
// outcome follows Equation 14 (both assimilation reactions convert e₁→e₂;
// initial quantities e₁=85, e₂=15).
// Term order within a side follows species registration order (merge
// order), which differs cosmetically from the paper's typesetting; the
// chemistry is identical.
var figure4 = []string{
	"(fan-out) moi --1e+09--> x1 + x2",
	"(linear) 6x2 --1e+09--> y1",
	"(logarithm) b --0.001--> b + a",
	"(logarithm) 2x1 + a --1e+06--> a + c + x1'",
	"(logarithm) 2c --1e+06--> c",
	"(logarithm) a --1000--> ∅",
	"(logarithm) x1' --1--> x1",
	"(logarithm) c --1--> 6y2",
	"(assimilation) y2 + e1 --1e+09--> e2",
	"(assimilation) y1 + e1 --1e+09--> e2",
	"(initializing) e1 --1e-09--> d1",
	"(initializing) e2 --1e-09--> d2",
	"(reinforcing) e1 + d1 --1--> 2d1",
	"(reinforcing) e2 + d2 --1--> 2d2",
	"(stabilizing) e2 + d1 --1--> d1",
	"(stabilizing) e1 + d2 --1--> d2",
	"(purifying) d1 + d2 --1e+09--> ∅",
	"(working) d1 + f1 --1e-09--> d1 + cro2",
	"(working) d2 + f2 --1e-09--> d2 + ci2",
}

func TestFigure4Golden(t *testing.T) {
	m := SyntheticModel()
	if got := m.Net.NumReactions(); got != 19 {
		t.Fatalf("reactions = %d, want the paper's 19", got)
	}
	if got := m.Net.NumSpecies(); got != 17 {
		t.Fatalf("species = %d, want the paper's 17 (%v)", got, m.Net.SpeciesNames())
	}
	var got []string
	for i := range m.Net.Reactions() {
		r := m.Net.Reaction(i)
		got = append(got, "("+r.Label+") "+chem.FormatReaction(m.Net, r))
	}
	// Category-insensitive to emission order within the network: compare as
	// multisets.
	if !sameMultiset(got, figure4) {
		t.Fatalf("synthesised reactions differ from Figure 4:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(figure4, "\n  "))
	}
}

func TestFigure4InitialQuantities(t *testing.T) {
	m := SyntheticModel()
	cases := map[string]int64{
		"e1": 85, // figure4's reconciliation: paper prints 15/85 swapped
		"e2": 15,
		"b":  1,
		"x1": 0,
		"d1": 0,
	}
	for name, want := range cases {
		if got := m.Net.Initial(m.Net.MustSpecies(name)); got != want {
			t.Errorf("initial %s = %d, want %d", name, got, want)
		}
	}
	// Food supplies must clear the thresholds.
	if f1 := m.Net.Initial(m.Net.MustSpecies("f1")); f1 < 55 {
		t.Errorf("F1 = %d, below the cro2 threshold 55", f1)
	}
	if f2 := m.Net.Initial(m.Net.MustSpecies("f2")); f2 < 145 {
		t.Errorf("F2 = %d, below the ci2 threshold 145", f2)
	}
}

func TestFigure4SpeciesInventory(t *testing.T) {
	m := SyntheticModel()
	want := []string{
		"moi", "x1", "x2", "y1", "y2", "a", "b", "c", "x1'",
		"e1", "e2", "d1", "d2", "f1", "f2", "cro2", "ci2",
	}
	names := m.Net.SpeciesNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("species %q missing (have %v)", w, names)
		}
	}
}

func TestFigure4ValidatesCleanly(t *testing.T) {
	m := SyntheticModel()
	issues := chem.Validate(m.Net)
	if errs := chem.Errors(issues); len(errs) > 0 {
		t.Fatalf("validation errors: %v", errs)
	}
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
		if count[s] < 0 {
			return false
		}
	}
	return true
}
