// Package rng provides reproducible pseudo-random number generation for
// stochastic simulation.
//
// The package is built around a PCG-XSL-RR 128/64 generator (O'Neill 2014):
// a 128-bit linear congruential core with an output permutation. It offers
//
//   - full determinism across platforms (no dependence on math/rand's
//     unspecified seeding or scheduling),
//   - cheap independent streams for parallel Monte Carlo (each stream selects
//     a distinct LCG increment, giving statistically independent sequences
//     from the same seed),
//   - the samplers stochastic simulation needs: uniform, exponential,
//     discrete (both linear and alias-method), binomial, Poisson and normal.
//
// All generators in this package are deliberately *not* safe for concurrent
// use; parallel code derives one Stream per goroutine (see NewStream).
package rng

import (
	"math/bits"
	"unsafe"
)

// PCG is a PCG-XSL-RR 128/64 pseudo-random generator.
//
// The zero value is not a valid generator; construct one with New or
// NewStream. PCG values are cheap to copy, but copies share no state and
// evolve independently after the copy.
type PCG struct {
	hi, lo uint64 // 128-bit LCG state
	incHi  uint64 // 128-bit increment (must be odd in low word)
	incLo  uint64
}

// Multiplier for the 128-bit LCG step (PCG reference implementation).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// New returns a generator seeded from seed, using the default stream.
func New(seed uint64) *PCG {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded from seed on the given stream.
// Different stream values yield statistically independent sequences for the
// same seed, which is how parallel Monte Carlo trials obtain per-worker
// generators without correlation.
//
// The generator sits alone at the head of a 128-byte block (pcgBlock). A
// worker writes its generator on every draw, so a neighbour in the same
// 64-byte line, or in the pair of lines prefetchers fetch together, would
// bounce between the cores of two workers.
func NewStream(seed, stream uint64) *PCG {
	p := &new(pcgBlock).PCG
	p.Reseed(seed, stream)
	return p
}

// pcgBlock pads a PCG to one 128-byte block. Go places 128-byte objects on
// 128-byte boundaries, so nothing else shares the generator's lines. The
// padding is layout only: no draw changes.
type pcgBlock struct {
	PCG
	_ [128 - unsafe.Sizeof(PCG{})]byte
}

// Reseed reinitialises p in place to the exact starting state of
// NewStream(seed, stream). Worker loops that run many trials reposition one
// generator per trial this way instead of allocating a fresh PCG each time;
// the trial→stream mapping (and therefore every result) is identical.
func (p *PCG) Reseed(seed, stream uint64) {
	// Expand seed and stream through SplitMix64 so that closely related
	// inputs (0, 1, 2, ...) land far apart in state space.
	sm := seed
	s0 := splitmix64(&sm)
	s1 := splitmix64(&sm)
	sm = stream ^ 0x9e3779b97f4a7c15
	p.incHi = splitmix64(&sm)
	p.incLo = splitmix64(&sm) | 1 // increment must be odd

	// Standard PCG initialisation: advance once from zero state, add seed,
	// advance again.
	p.hi, p.lo = 0, 0
	p.step()
	p.lo, p.hi = add128(p.lo, p.hi, s1, s0)
	p.step()
}

// splitmix64 advances *x and returns the next SplitMix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// add128 returns (aLo,aHi) + (bLo,bHi) as (lo, hi).
func add128(aLo, aHi, bLo, bHi uint64) (lo, hi uint64) {
	lo, carry := bits.Add64(aLo, bLo, 0)
	hi, _ = bits.Add64(aHi, bHi, carry)
	return lo, hi
}

// step advances the 128-bit LCG state by one iteration.
func (p *PCG) step() {
	// state = state*mul + inc (mod 2^128)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, carry := bits.Add64(lo, p.incLo, 0)
	hi, _ = bits.Add64(hi, p.incHi, carry)
	p.lo, p.hi = lo, hi
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PCG) Uint64() uint64 {
	p.step()
	// XSL-RR output function: xor-fold the 128-bit state, then rotate by the
	// top six bits.
	return bits.RotateLeft64(p.hi^p.lo, -int(p.hi>>58))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (p *PCG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(p.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(p.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform float64 in the open interval (0, 1). It never
// returns exactly 0, which makes it safe as the argument of a logarithm.
func (p *PCG) Float64Open() float64 {
	for {
		f := float64(p.Uint64()>>11+1) * (1.0 / ((1 << 53) + 1))
		if f > 0 && f < 1 {
			return f
		}
	}
}

// Advance moves the generator delta steps forward in its sequence in
// O(log delta) time, as if Uint64 had been called delta times and the
// results discarded.
func (p *PCG) Advance(delta uint64) {
	// LCG jump-ahead (Brown, "Random number generation with arbitrary
	// strides"): compute mul^delta and the matching increment in O(log n).
	accMulHi, accMulLo := uint64(0), uint64(1) // 1
	accIncHi, accIncLo := uint64(0), uint64(0) // 0
	curMulHi, curMulLo := uint64(mulHi), uint64(mulLo)
	curIncHi, curIncLo := p.incHi, p.incLo
	for delta > 0 {
		if delta&1 != 0 {
			accMulHi, accMulLo = mul128(accMulHi, accMulLo, curMulHi, curMulLo)
			// accInc = accInc*curMul + curInc
			h, l := mul128(accIncHi, accIncLo, curMulHi, curMulLo)
			accIncLo, accIncHi = add128(l, h, curIncLo, curIncHi)
		}
		// curInc = (curMul + 1) * curInc
		plus1Hi, plus1Lo := curMulHi, curMulLo
		plus1Lo, c := bits.Add64(plus1Lo, 1, 0)
		plus1Hi += c
		curIncHi, curIncLo = mul128(plus1Hi, plus1Lo, curIncHi, curIncLo)
		curMulHi, curMulLo = mul128(curMulHi, curMulLo, curMulHi, curMulLo)
		delta >>= 1
	}
	h, l := mul128(accMulHi, accMulLo, p.hi, p.lo)
	p.lo, p.hi = add128(l, h, accIncLo, accIncHi)
}

// mul128 returns the low 128 bits of (aHi,aLo) * (bHi,bLo).
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	hi += aLo*bHi + aHi*bLo
	return hi, lo
}
