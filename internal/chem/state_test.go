package chem

import (
	"testing"
	"testing/quick"
)

func TestPropensityFirstOrder(t *testing.T) {
	n := MustParseNetwork(`a -> b @ 2.5`)
	st := State{10, 0}
	if got := Propensity(n.Reaction(0), st); got != 25 {
		t.Fatalf("propensity = %v, want 25", got)
	}
}

func TestPropensityBimolecular(t *testing.T) {
	n := MustParseNetwork(`a + b -> c @ 10`)
	st := State{15, 25, 0}
	if got := Propensity(n.Reaction(0), st); got != 10*15*25 {
		t.Fatalf("propensity = %v, want %v", got, 10*15*25)
	}
}

func TestPropensityHomodimer(t *testing.T) {
	// 2A → …: propensity k·X(X−1)/2 per Gillespie's convention.
	n := MustParseNetwork(`2 a -> b @ 4`)
	st := State{5, 0}
	if got := Propensity(n.Reaction(0), st); got != 4*5*4/2 {
		t.Fatalf("propensity = %v, want %v", got, 4*5*4/2)
	}
}

func TestPropensityTrimolecular(t *testing.T) {
	n := MustParseNetwork(`3 a -> b @ 6`)
	st := State{5, 0}
	want := 6.0 * 10 // C(5,3) = 10
	if got := Propensity(n.Reaction(0), st); got != want {
		t.Fatalf("propensity = %v, want %v", got, want)
	}
}

func TestPropensityHighOrder(t *testing.T) {
	n := MustParseNetwork(`4 a -> b @ 1`)
	st := State{6, 0}
	want := 15.0 // C(6,4)
	if got := Propensity(n.Reaction(0), st); got != want {
		t.Fatalf("propensity = %v, want %v", got, want)
	}
}

func TestPropensityInsufficientReactants(t *testing.T) {
	n := MustParseNetwork(`2 a -> b @ 4`)
	if got := Propensity(n.Reaction(0), State{1, 0}); got != 0 {
		t.Fatalf("propensity = %v, want 0 for X < coeff", got)
	}
}

func TestPropensityZerothOrder(t *testing.T) {
	n := MustParseNetwork(`0 -> a @ 7`)
	if got := Propensity(n.Reaction(0), State{0}); got != 7 {
		t.Fatalf("zeroth-order propensity = %v, want 7", got)
	}
}

func TestApplyConservesStoichiometry(t *testing.T) {
	n := MustParseNetwork(`a + b -> 2 c @ 10`)
	st := State{15, 25, 0}
	st.Apply(n.Reaction(0))
	if st[0] != 14 || st[1] != 24 || st[2] != 2 {
		t.Fatalf("after firing: %v, want [14 24 2]", st)
	}
}

func TestApplyPanicsWithoutReactants(t *testing.T) {
	n := MustParseNetwork(`a -> b @ 1`)
	st := State{0, 0}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply without reactants did not panic")
		}
	}()
	st.Apply(n.Reaction(0))
}

func TestCanFire(t *testing.T) {
	n := MustParseNetwork(`2 a + b -> c @ 1`)
	r := n.Reaction(0)
	cases := []struct {
		st   State
		want bool
	}{
		{State{2, 1, 0}, true},
		{State{1, 1, 0}, false},
		{State{2, 0, 0}, false},
		{State{5, 9, 0}, true},
	}
	for _, c := range cases {
		if got := c.st.CanFire(r); got != c.want {
			t.Errorf("CanFire(%v) = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestCanFireMatchesPropensityProperty(t *testing.T) {
	n := MustParseNetwork(`2 a + b -> c @ 1`)
	r := n.Reaction(0)
	f := func(a, b uint8) bool {
		st := State{int64(a % 8), int64(b % 8), 0}
		return st.CanFire(r) == (Propensity(r, st) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescent(t *testing.T) {
	n := MustParseNetwork(`
a -> b @ 1
b + c -> a @ 1
`)
	if !Quiescent(n, State{0, 5, 0}) {
		t.Fatal("state with no firable reaction reported non-quiescent")
	}
	if Quiescent(n, State{1, 0, 0}) {
		t.Fatal("state with firable reaction reported quiescent")
	}
}

func TestStateCloneIndependent(t *testing.T) {
	st := State{1, 2, 3}
	c := st.Clone()
	c[0] = 99
	if st[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestStateTotalAndNonNegative(t *testing.T) {
	st := State{1, 2, 3}
	if st.Total() != 6 {
		t.Fatalf("Total = %d", st.Total())
	}
	if !st.NonNegative() {
		t.Fatal("NonNegative false for valid state")
	}
	st[1] = -1
	if st.NonNegative() {
		t.Fatal("NonNegative true for invalid state")
	}
}

func TestSetNegativePanics(t *testing.T) {
	st := State{0}
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	st.Set(0, -1)
}

func TestPropensityNonNegativeProperty(t *testing.T) {
	n := MustParseNetwork(`2 a + 3 b -> c @ 0.5`)
	r := n.Reaction(0)
	f := func(a, b uint8) bool {
		st := State{int64(a), int64(b), 0}
		return Propensity(r, st) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
