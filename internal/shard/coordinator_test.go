package shard

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
)

func testSweepSpec() SweepSpec {
	return SweepSpec{
		Sweep: testTallySweep, Grid: []float64{1, 6}, Trials: 200, Seed: 11, Outcomes: testOutcomes,
	}
}

func TestCoordinateMatchesSingleProcess(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	want := singleProcessTally(spec)
	for _, shards := range []int{1, 3, 8} {
		merged, err := Coordinate(spec, shards, LocalRunner(reg), Options{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := merged.SweepPoints()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range want {
			for o := range want[i].Result.Counts {
				if got[i].Result.Counts[o] != want[i].Result.Counts[o] {
					t.Fatalf("shards=%d point %d outcome %d: %d, want %d",
						shards, i, o, got[i].Result.Counts[o], want[i].Result.Counts[o])
				}
			}
		}
	}
}

func TestCoordinatePartitionCoversExactly(t *testing.T) {
	spec := testSweepSpec()
	for _, n := range []int{1, 3, 7, 200, 500} {
		shards := spec.Partition(n)
		at := 0
		for _, sp := range shards {
			if sp.Lo != at {
				t.Fatalf("n=%d: shard starts at %d, want %d", n, sp.Lo, at)
			}
			if sp.Hi < sp.Lo {
				t.Fatalf("n=%d: negative shard %s", n, sp.SpanRange())
			}
			at = sp.Hi
		}
		if at != spec.Trials {
			t.Fatalf("n=%d: partition covers [0,%d), want [0,%d)", n, at, spec.Trials)
		}
		if n <= spec.Trials && len(shards) != n {
			t.Fatalf("n=%d: got %d shards", n, len(shards))
		}
	}
}

func TestCoordinateRetriesFlakyWorker(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	var calls atomic.Int64
	flaky := func(sp ShardSpec) (ShardResult, error) {
		if calls.Add(1)%2 == 1 {
			return ShardResult{}, fmt.Errorf("injected transient failure")
		}
		return Run(sp, reg)
	}
	merged, err := Coordinate(spec, 4, flaky, Options{Retries: 2})
	if err != nil {
		t.Fatalf("retrying coordinator failed: %v", err)
	}
	if !merged.Complete() {
		t.Fatal("retried sweep incomplete")
	}
}

func TestCoordinateReportsMissingRangesOnWorkerFailure(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	shards := spec.Partition(4)
	dead := shards[2].SpanRange()
	runner := func(sp ShardSpec) (ShardResult, error) {
		if sp.SpanRange() == dead {
			return ShardResult{}, fmt.Errorf("worker lost")
		}
		return Run(sp, reg)
	}
	_, err := Coordinate(spec, 4, runner, Options{})
	if err == nil {
		t.Fatal("coordinator succeeded with a dead shard")
	}
	if !strings.Contains(err.Error(), dead.String()) {
		t.Fatalf("error does not name the missing range %s: %v", dead, err)
	}
}

func TestCoordinateRejectsWrongRangeFromWorker(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	// A confused worker that always computes the first quarter, whatever
	// it was asked: the coordinator must refuse the wrong coverage rather
	// than merge a duplicate.
	confused := func(sp ShardSpec) (ShardResult, error) {
		sp.Lo, sp.Hi = 0, 50
		return Run(sp, reg)
	}
	_, err := Coordinate(spec, 4, confused, Options{})
	if err == nil {
		t.Fatal("coordinator accepted wrong-range results")
	}
}

// reverseArrival returns a runner and an OnShardDone hook that make the
// shards of parts arrive in reverse order when all are dispatched at once:
// shard i does not run until shard i+1 has been merged, or has failed.
// The shards listed in fail fail on their only attempt. order records the
// start trial of each shard in merge order.
func reverseArrival(parts []ShardSpec, reg *Registry, fail []int) (run Runner, done func(int, int, ShardResult), order func() []int) {
	index := map[int]int{}
	finished := make([]chan struct{}, len(parts))
	for i, sp := range parts {
		index[sp.Lo] = i
		finished[i] = make(chan struct{})
	}
	var mu sync.Mutex
	var los []int
	run = func(sp ShardSpec) (ShardResult, error) {
		i := index[sp.Lo]
		if i+1 < len(parts) {
			<-finished[i+1]
		}
		if slices.Contains(fail, i) {
			close(finished[i])
			return ShardResult{}, fmt.Errorf("injected failure")
		}
		return Run(sp, reg)
	}
	done = func(_, _ int, res ShardResult) {
		lo := res.Ranges[0].Lo
		mu.Lock()
		los = append(los, lo)
		mu.Unlock()
		close(finished[index[lo]])
	}
	order = func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(los)
	}
	return run, done, order
}

// TestCoordinateMergesReverseArrivalBitwise: with every shard in flight at
// once and results arriving last shard first, the running merge encodes
// to exactly the bytes of the 1-shard run, for tally, numeric and dist
// sweeps. With one shard or two failing, the sweep still returns the
// merge of the rest and names the missing ranges and the failed shards
// in trial order: shard [125,150) comes after shard [50,75), which a
// string sort of the failure lines put first.
func TestCoordinateMergesReverseArrivalBitwise(t *testing.T) {
	reg := testRegistry()
	const shards = 8
	for _, spec := range []SweepSpec{
		{Sweep: testTallySweep, Grid: []float64{1, 6}, Trials: 200, Seed: 11, Outcomes: testOutcomes},
		{Sweep: testNumericSweep, Grid: []float64{1, 6}, Trials: 200, Seed: 11, Numeric: true},
		{Sweep: testDistSweep, Grid: []float64{1, 6}, Trials: 200, Seed: 11, Outcomes: testOutcomes, Dist: true},
	} {
		want, err := Run(spec.Shard(0, spec.Trials), reg)
		if err != nil {
			t.Fatal(err)
		}
		parts := spec.Partition(shards)
		run, done, order := reverseArrival(parts, reg, nil)
		got, err := Coordinate(spec, shards, run, Options{Parallel: shards, OnShardDone: done})
		if err != nil {
			t.Fatalf("%s: %v", spec.Sweep, err)
		}
		var reversed []int
		for i := len(parts) - 1; i >= 0; i-- {
			reversed = append(reversed, parts[i].Lo)
		}
		if !slices.Equal(order(), reversed) {
			t.Fatalf("%s: merge order %v, want %v", spec.Sweep, order(), reversed)
		}
		if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
			t.Errorf("%s: reverse-arrival merge differs from the 1-shard run", spec.Sweep)
		}
	}

	spec := testSweepSpec()
	parts := spec.Partition(shards)
	for _, fail := range [][]int{{3}, {2, 5}} {
		run, done, _ := reverseArrival(parts, reg, fail)
		got, err := Coordinate(spec, shards, run, Options{Parallel: shards, OnShardDone: done})
		if err == nil {
			t.Fatalf("shards %v failed, yet the sweep succeeded", fail)
		}
		var missing []Range
		var failures []string
		var rest []ShardResult
		for i, sp := range parts {
			if slices.Contains(fail, i) {
				missing = append(missing, Range{sp.Lo, sp.Hi})
				failures = append(failures, fmt.Sprintf("shard %s (attempt 1): injected failure", sp.SpanRange()))
				continue
			}
			res, err := Run(sp, reg)
			if err != nil {
				t.Fatal(err)
			}
			rest = append(rest, res)
		}
		if !slices.Equal(got.MissingRanges(), missing) {
			t.Errorf("shards %v failed: missing ranges %v, want %v", fail, got.MissingRanges(), missing)
		}
		wantErr := fmt.Sprintf("shard: incomplete sweep: missing trials %v:\n%s", missing, strings.Join(failures, "\n"))
		if err.Error() != wantErr {
			t.Errorf("shards %v failed: error\n%s\nwant\n%s", fail, err, wantErr)
		}
		partial, err := MergeAll(rest...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, partial)) {
			t.Errorf("shards %v failed: partial merge differs from the merge of the shards that succeeded", fail)
		}
	}
}

// TestCoordinateFailsOnMergeError: a result that passes the range check
// but cannot merge (one point short of the grid) fails the whole sweep,
// and the shards folded after it do not count as done.
func TestCoordinateFailsOnMergeError(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	bad := spec.Partition(4)[1]
	malformed := func(sp ShardSpec) (ShardResult, error) {
		res, err := Run(sp, reg)
		if sp.Lo == bad.Lo {
			res.Points = res.Points[:1]
		}
		return res, err
	}
	var done atomic.Int64
	opts := Options{Parallel: 1, OnShardDone: func(int, int, ShardResult) { done.Add(1) }}
	got, err := Coordinate(spec, 4, malformed, opts)
	if err == nil || !strings.Contains(err.Error(), "1 points for 2 grid values") {
		t.Fatalf("want the merge failure, got %v", err)
	}
	if got.Sweep != "" {
		t.Errorf("failed sweep returned a result for %q", got.Sweep)
	}
	if done.Load() >= 4 {
		t.Errorf("%d shards counted done, though one could not merge", done.Load())
	}
}

// testWideDistSweep is a dist sweep whose histogram has 32 768 bins, so
// each of its results carries 256 KB of counts: a coordinator that keeps
// every result shows it in the live heap.
const testWideDistSweep = "test/dist-wide"

func wideDistRegistry() (*Registry, SweepSpec) {
	reg := NewRegistry()
	reg.Register(testWideDistSweep, Factory{
		Outcomes: testOutcomes,
		Dist:     true,
		Hist:     mc.HistConfig{Lo: -1 << 14, Width: 1, Bins: 1 << 15},
		DistF: func(param float64) (DistTrial, error) {
			return DistTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Observe:   func(eng any) mc.Obs { return testObserve(param, eng.(*rng.PCG)) },
			}, nil
		},
	})
	spec := SweepSpec{
		Sweep: testWideDistSweep, Grid: []float64{1}, Trials: 200, Seed: 11,
		Outcomes: testOutcomes, Dist: true,
	}
	return reg, spec
}

// liveHeap returns the bytes of heap objects still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCoordinateHoldsOneMergeWhateverTheShardCount: over 100 in-process
// shards of 256 KB results, the live heap after the 100th shard is within
// 8 MB of the heap after the 10th. A coordinator that kept every result
// until the end would hold about 23 MB more.
func TestCoordinateHoldsOneMergeWhateverTheShardCount(t *testing.T) {
	reg, spec := wideDistRegistry()
	// gate keeps the next shard from running, and allocating, while the
	// heap is measured.
	var gate sync.Mutex
	run := func(sp ShardSpec) (ShardResult, error) {
		gate.Lock()
		defer gate.Unlock()
		return Run(sp, reg)
	}
	measure := func() uint64 {
		gate.Lock()
		defer gate.Unlock()
		return liveHeap()
	}
	var at10, at100 uint64
	opts := Options{Parallel: 1, OnShardDone: func(done, _ int, _ ShardResult) {
		switch done {
		case 10:
			at10 = measure()
		case 100:
			at100 = measure()
		}
	}}
	res, err := Coordinate(spec, 100, run, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("sweep incomplete")
	}
	t.Logf("live heap %.1f MB at shard 10, %.1f MB at shard 100", float64(at10)/(1<<20), float64(at100)/(1<<20))
	if at100 > at10+8<<20 {
		t.Errorf("live heap grew from %.1f MB at shard 10 to %.1f MB at shard 100",
			float64(at10)/(1<<20), float64(at100)/(1<<20))
	}
}

// expectTallyBitwise asserts a merged result equals the unsharded
// single-process sweep bit for bit.
func expectTallyBitwise(t *testing.T, spec SweepSpec, merged ShardResult) {
	t.Helper()
	got, err := merged.SweepPoints()
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcessTally(spec)
	for i := range want {
		if want[i].Result.None != got[i].Result.None {
			t.Fatalf("point %d: none %d, want %d", i, got[i].Result.None, want[i].Result.None)
		}
		for o := range want[i].Result.Counts {
			if want[i].Result.Counts[o] != got[i].Result.Counts[o] {
				t.Fatalf("point %d outcome %d: %d, want %d", i, o,
					got[i].Result.Counts[o], want[i].Result.Counts[o])
			}
		}
	}
}

// TestCoordinateRetriesOntoHealthyWorkersThroughFaults is the transport
// fault-injection suite: one worker of a three-worker fleet has its
// connections sabotaged — frames dropped mid-shard, truncated, corrupted,
// or delayed past the shard deadline — and in every mode the coordinator
// must route retries onto the healthy workers and still merge a sweep
// bit-for-bit identical to the unsharded mc.Run path.
func TestCoordinateRetriesOntoHealthyWorkersThroughFaults(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()

	cases := map[string]struct {
		opts RemoteOptions
		wrap func(net.Conn, *atomic.Int64) net.Conn
	}{
		// The connection dies after ~120 bytes read: enough to survive
		// the handshake, so the first result frame is cut off mid-stream.
		"drops connection mid-result": {
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: 120, corruptAt: -1, faults: faults}
			},
		},
		// The stream is cut inside the frame header of the first result:
		// a truncated frame, not a clean close.
		"truncates result frame": {
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: 82, corruptAt: -1, faults: faults}
			},
		},
		// A bit flip deep in the result frame: the CRC must catch it and
		// the coordinator must treat the worker as unusable, not merge
		// silently corrupted tallies.
		"corrupts result frame": {
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: -1, corruptAt: 150, faults: faults}
			},
		},
		// The worker stalls: reads outlast the shard deadline.
		"delays frames past the deadline": {
			opts: RemoteOptions{ShardTimeout: 150 * time.Millisecond, DialTimeout: 2 * time.Second},
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: -1, corruptAt: -1, delay: 400 * time.Millisecond, faults: faults}
			},
		},
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			healthy1 := startTestServer(t, reg)
			healthy2 := startTestServer(t, reg)
			faulty := startTestServer(t, reg)
			faultyAddr := faulty.Addr().String()

			var faults atomic.Int64
			opts := tc.opts
			opts.Dial = func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					return nil, err
				}
				if addr == faultyAddr {
					return tc.wrap(c, &faults), nil
				}
				return c, nil
			}
			pool, err := NewRemotePool(
				[]string{faultyAddr, healthy1.Addr().String(), healthy2.Addr().String()}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			merged, err := Coordinate(spec, 6, pool.Runner(), Options{Parallel: 3, Retries: 4})
			if err != nil {
				t.Fatalf("coordinator did not survive the faulty worker: %v", err)
			}
			if faults.Load() == 0 {
				t.Fatal("fault injection never fired; the test proved nothing")
			}
			expectTallyBitwise(t, spec, merged)
		})
	}
}

// TestCoordinateSurvivesServerSideFlakiness drives the flakyListener
// side of the harness: a worker whose *accepted* connections corrupt
// traffic is indistinguishable from a broken NIC, and the coordinator
// must still converge on the healthy worker.
func TestCoordinateSurvivesServerSideFlakiness(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var faults atomic.Int64
	flaky := Serve(&flakyListener{Listener: ln, wrap: func(c net.Conn) net.Conn {
		// Server-side read faults cut the coordinator's frames: the spec
		// frame never arrives whole, so the worker hangs up mid-request.
		return &flakyConn{Conn: c, readLimit: 60, corruptAt: -1, faults: &faults}
	}}, reg)
	defer flaky.Close()
	healthy := startTestServer(t, reg)

	pool := testPool(t, RemoteOptions{}, flaky, healthy)
	merged, err := Coordinate(spec, 4, pool.Runner(), Options{Parallel: 2, Retries: 3})
	if err != nil {
		t.Fatalf("coordinator did not survive the flaky listener: %v", err)
	}
	if faults.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
	expectTallyBitwise(t, spec, merged)
}

// TestCoordinateDrainingWorkerShardsReassigned: shards answered with a
// drain frame are retried onto the remaining worker, preserving the
// bitwise merge.
func TestCoordinateDrainingWorkerShardsReassigned(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	draining := startTestServer(t, reg)
	healthy := startTestServer(t, reg)
	pool := testPool(t, RemoteOptions{}, draining, healthy)
	draining.Drain()

	merged, err := Coordinate(spec, 4, pool.Runner(), Options{Parallel: 2, Retries: 3})
	if err != nil {
		t.Fatalf("coordinator did not survive a draining worker: %v", err)
	}
	expectTallyBitwise(t, spec, merged)
}

func TestCoordinateRejectsForeignResult(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	// A worker answering for a different seed must be rejected before the
	// merge can silently mix streams.
	foreign := func(sp ShardSpec) (ShardResult, error) {
		sp.Seed++
		return Run(sp, reg)
	}
	if _, err := Coordinate(spec, 2, foreign, Options{}); err == nil {
		t.Fatal("coordinator accepted results for a different seed")
	}
}
