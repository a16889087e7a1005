package rng

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 of seed 7 collided %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(3)
	for i := 0; i < 100000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	p := New(4)
	for i := 0; i < 100000; i++ {
		f := p.Float64Open()
		if f <= 0 || f >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	p := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Float64()
	}
	mean := sum / n
	// stderr of uniform mean is 1/sqrt(12n) ~ 0.00065; allow 6 sigma.
	if math.Abs(mean-0.5) > 0.004 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	p := New(6)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 1000; i++ {
			v := p.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	p := New(7)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[p.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestAdvanceMatchesSequential(t *testing.T) {
	for _, delta := range []uint64{0, 1, 2, 3, 10, 63, 64, 1000, 123457} {
		a := New(99)
		b := New(99)
		for i := uint64(0); i < delta; i++ {
			a.Uint64()
		}
		b.Advance(delta)
		for i := 0; i < 16; i++ {
			got, want := b.Uint64(), a.Uint64()
			if got != want {
				t.Fatalf("Advance(%d): output %d mismatch: got %x want %x", delta, i, got, want)
			}
		}
	}
}

func TestAdvanceProperty(t *testing.T) {
	f := func(seed uint64, delta16 uint16) bool {
		delta := uint64(delta16)
		a := New(seed)
		b := New(seed)
		for i := uint64(0); i < delta; i++ {
			a.Uint64()
		}
		b.Advance(delta)
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64BitBalance(t *testing.T) {
	p := New(11)
	const n = 100000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := p.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		if math.Abs(float64(c)-n/2) > 6*math.Sqrt(n)/2 {
			t.Errorf("bit %d set %d/%d times", b, c, n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	p := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	p := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Float64()
	}
	_ = sink
}

// streamSink keeps the generators of TestStreamOwnsItsBlock on the heap,
// where mc's workers keep theirs.
var streamSink []*PCG

// TestStreamOwnsItsBlock: every generator NewStream returns starts a
// 128-byte block of its own, so no other data shares its cache lines or
// their prefetch pair, and the padding leaves the stream unchanged.
func TestStreamOwnsItsBlock(t *testing.T) {
	if size := unsafe.Sizeof(pcgBlock{}); size != 128 {
		t.Fatalf("pcgBlock is %d bytes, want one 128-byte block", size)
	}
	for i := 0; i < 64; i++ {
		p := NewStream(7, uint64(i))
		streamSink = append(streamSink, p)
		if addr := uintptr(unsafe.Pointer(p)); addr%128 != 0 {
			t.Errorf("stream %d: generator at %#x, not on a 128-byte boundary", i, addr)
		}
		var plain PCG
		plain.Reseed(7, uint64(i))
		if *p != plain {
			t.Errorf("stream %d: padded generator state differs from Reseed's", i)
		}
	}
	streamSink = nil
}
