package mc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProportionEstimate(t *testing.T) {
	p := Proportion{Successes: 30, Trials: 100}
	if p.Estimate() != 0.3 {
		t.Fatalf("Estimate = %v", p.Estimate())
	}
	if (Proportion{}).Estimate() != 0 {
		t.Fatal("zero-trials estimate should be 0")
	}
}

func TestProportionStdErr(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 100}
	want := math.Sqrt(0.25 / 100)
	if math.Abs(p.StdErr()-want) > 1e-15 {
		t.Fatalf("StdErr = %v, want %v", p.StdErr(), want)
	}
}

func TestWilsonCoversTruth(t *testing.T) {
	// For p=0.3, n=1000 the 95% Wilson interval should contain 0.3 for the
	// vast majority of binomial draws; spot-check the central draw.
	p := Proportion{Successes: 300, Trials: 1000}
	lo, hi := p.Wilson(Z95)
	if lo >= 0.3 || hi <= 0.3 {
		t.Fatalf("interval [%v,%v] misses 0.3", lo, hi)
	}
	if hi-lo > 0.07 {
		t.Fatalf("interval [%v,%v] implausibly wide", lo, hi)
	}
}

func TestWilsonZeroSuccesses(t *testing.T) {
	// The Wald interval collapses at p̂=0; Wilson must not.
	p := Proportion{Successes: 0, Trials: 1000}
	lo, hi := p.Wilson(Z95)
	if lo != 0 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	if hi <= 0 || hi > 0.01 {
		t.Fatalf("hi = %v, want small positive", hi)
	}
}

func TestWilsonAllSuccesses(t *testing.T) {
	p := Proportion{Successes: 1000, Trials: 1000}
	lo, hi := p.Wilson(Z95)
	if hi != 1 {
		t.Fatalf("hi = %v, want 1", hi)
	}
	if lo >= 1 || lo < 0.99 {
		t.Fatalf("lo = %v", lo)
	}
}

func TestWilsonZeroTrials(t *testing.T) {
	lo, hi := (Proportion{}).Wilson(Z95)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval = [%v,%v], want [0,1]", lo, hi)
	}
}

func TestWilsonOrderedProperty(t *testing.T) {
	f := func(succ16, n16 uint16) bool {
		n := int64(n16%1000) + 1
		succ := int64(succ16) % (n + 1)
		p := Proportion{Successes: succ, Trials: n}
		lo, hi := p.Wilson(Z95)
		est := p.Estimate()
		return lo >= 0 && hi <= 1 && lo <= est && est <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
