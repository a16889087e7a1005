package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.journal")
}

func encodeOrDie(t *testing.T, res ShardResult) []byte {
	t.Helper()
	enc, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestJournalRoundTrip(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)

	j, replayed, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d results", len(replayed))
	}
	var appended []ShardResult
	for _, rg := range []Range{{0, 50}, {50, 120}} {
		res, err := Run(spec.Shard(rg.Lo, rg.Hi), reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(res); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, res)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != len(appended) {
		t.Fatalf("replayed %d results, want %d", len(replayed), len(appended))
	}
	for i := range appended {
		if !bytes.Equal(encodeOrDie(t, replayed[i]), encodeOrDie(t, appended[i])) {
			t.Fatalf("record %d does not round-trip", i)
		}
	}
}

func TestJournalRejectsForeignSweepAndGarbage(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec.Shard(0, 30), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res); err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := spec
	other.Seed++
	if _, _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal of a different seed accepted")
	}
	other = spec
	other.Trials = 300
	if _, _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal of a different trial total accepted")
	}

	// Appending a result of another sweep must be refused before it hits
	// the disk.
	j2, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	foreign := res
	foreign.Seed++
	if err := j2.Append(foreign); err == nil {
		t.Fatal("foreign result appended")
	}

	// A file that is not a journal at all is refused, never truncated —
	// including foreign files shorter than the magic.
	for _, content := range []string{"do not clobber me, I am somebody's file", "tiny", "x"} {
		garbage := filepath.Join(t.TempDir(), "notes.txt")
		if err := os.WriteFile(garbage, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(garbage, spec); err == nil {
			t.Fatalf("non-journal file %q accepted", content)
		}
		kept, err := os.ReadFile(garbage)
		if err != nil || string(kept) != content {
			t.Fatalf("OpenJournal damaged the foreign file %q: now %q", content, kept)
		}
	}

	// A crash mid-creation can leave a bare prefix of the magic; that is
	// ours, and reopening rewrites it into a fresh journal.
	torn := filepath.Join(t.TempDir(), "torn.journal")
	if err := os.WriteFile(torn, []byte(journalMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	jt, replayed, err := OpenJournal(torn, spec)
	if err != nil {
		t.Fatalf("torn-creation journal not rewritten: %v", err)
	}
	jt.Close()
	if len(replayed) != 0 {
		t.Fatalf("torn-creation journal replayed %d results", len(replayed))
	}
}

// TestJournalRefusesOversizedRecord: a record replay would reject as a
// torn tail (and truncate, with everything after it) must be refused at
// write time instead.
func TestJournalRefusesOversizedRecord(t *testing.T) {
	spec := testSweepSpec()
	j, _, err := OpenJournal(tmpJournal(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.appendRecord(make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized journal record written; resume would truncate it away as a torn tail")
	}
	// The refusal must not poison the journal: regular appends still work.
	res, err := Run(spec.Shard(0, 10), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res); err != nil {
		t.Fatalf("journal poisoned by refused oversize record: %v", err)
	}
}

// TestJournalRefusesConcurrentCoordinators: the exclusive lock keeps a
// resume rerun from interleaving appends with a still-running (hung, not
// dead) original coordinator.
func TestJournalRefusesConcurrentCoordinators(t *testing.T) {
	spec := testSweepSpec()
	path := tmpJournal(t)
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, spec); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second coordinator acquired a held journal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatalf("journal not reopenable after release: %v", err)
	}
	j2.Close()
}

// recordingRunner wraps a runner, tracking every dispatched trial range.
func recordingRunner(run Runner) (Runner, *[]Range) {
	var mu sync.Mutex
	ranges := &[]Range{}
	return func(sp ShardSpec) (ShardResult, error) {
		mu.Lock()
		*ranges = append(*ranges, sp.SpanRange())
		mu.Unlock()
		return run(sp)
	}, ranges
}

func dispatchedTrials(ranges []Range) int {
	n := 0
	for _, rg := range ranges {
		n += rg.Len()
	}
	return n
}

// TestJournalTornTailEveryByteOffset is the torn-write sweep: a journal
// holding two results is truncated at *every* byte offset of its last
// record — the exact file states a crash mid-append can leave — and for
// each, OpenJournal must salvage the intact prefix and ResumeCoordinate
// must re-run only the missing trials and merge to a result bit-for-bit
// identical to an uninterrupted run.
func TestJournalTornTailEveryByteOffset(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)

	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(spec.Shard(0, 50), reg)
	if err != nil {
		t.Fatal(err)
	}
	last, err := Run(spec.Shard(50, 120), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(last); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastRecord := 8 + len(encodeOrDie(t, last))
	lastStart := len(data) - lastRecord

	want, err := Coordinate(spec, 1, LocalRunner(reg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := encodeOrDie(t, want)

	dir := t.TempDir()
	for cut := lastStart; cut < len(data); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.journal", cut))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, replayed, err := OpenJournal(torn, spec)
		if err != nil {
			t.Fatalf("cut at %d: torn tail not tolerated: %v", cut, err)
		}
		jt.Close()
		if len(replayed) != 1 {
			t.Fatalf("cut at %d: replayed %d results, want the 1 intact record", cut, len(replayed))
		}
		if !bytes.Equal(encodeOrDie(t, replayed[0]), encodeOrDie(t, first)) {
			t.Fatalf("cut at %d: surviving record mutated", cut)
		}

		run, dispatched := recordingRunner(LocalRunner(reg))
		got, err := ResumeCoordinate(spec, torn, 4, run, Options{Parallel: 1})
		if err != nil {
			t.Fatalf("cut at %d: resume failed: %v", cut, err)
		}
		if !bytes.Equal(encodeOrDie(t, got), wantEnc) {
			t.Fatalf("cut at %d: resumed merge differs from uninterrupted run", cut)
		}
		// Only the missing trials — [50, 200) after losing the torn
		// record — may have been recomputed.
		if n := dispatchedTrials(*dispatched); n != spec.Trials-50 {
			t.Fatalf("cut at %d: resume dispatched %d trials, want %d", cut, n, spec.Trials-50)
		}
		for _, rg := range *dispatched {
			if rg.Lo < 50 {
				t.Fatalf("cut at %d: resume re-ran journaled range %s", cut, rg)
			}
		}
	}
}

// TestResumeCoordinateResumesKilledSweep kills a journaling coordinator
// after k shards (the runner starts failing permanently) and resumes it:
// the resumed sweep must dispatch exactly the missing trials and merge
// bit-for-bit with an uninterrupted single-process run.
func TestResumeCoordinateResumesKilledSweep(t *testing.T) {
	reg := testRegistry()
	for _, kind := range []string{"tally", "numeric", "dist"} {
		t.Run(kind, func(t *testing.T) {
			spec := testSweepSpec()
			switch kind {
			case "numeric":
				spec = SweepSpec{Sweep: testNumericSweep, Grid: []float64{0.5, 3}, Trials: 200, Seed: 11, Numeric: true}
			case "dist":
				spec = SweepSpec{Sweep: testDistSweep, Grid: []float64{0.5, 3}, Trials: 200, Seed: 11,
					Outcomes: testOutcomes, Dist: true}
			}
			path := tmpJournal(t)

			var completed atomic.Int64
			dying := func(sp ShardSpec) (ShardResult, error) {
				if completed.Load() >= 3 {
					return ShardResult{}, fmt.Errorf("injected coordinator death")
				}
				res, err := Run(sp, reg)
				if err == nil {
					completed.Add(1)
				}
				return res, err
			}
			if _, err := ResumeCoordinate(spec, path, 8, dying, Options{Parallel: 1}); err == nil {
				t.Fatal("killed sweep reported success")
			}

			jr, replayed, err := OpenJournal(path, spec)
			if err != nil {
				t.Fatal(err)
			}
			jr.Close()
			journaled := 0
			for _, res := range replayed {
				journaled += res.Covered()
			}
			if journaled == 0 || journaled >= spec.Trials {
				t.Fatalf("journal covers %d trials after the kill, want partial coverage", journaled)
			}

			run, dispatched := recordingRunner(LocalRunner(reg))
			got, err := ResumeCoordinate(spec, path, 8, run, Options{Parallel: 1})
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if n := dispatchedTrials(*dispatched); n != spec.Trials-journaled {
				t.Fatalf("resume dispatched %d trials, want the %d missing", n, spec.Trials-journaled)
			}
			want, err := Coordinate(spec, 1, LocalRunner(reg), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
				t.Fatal("resumed merge differs from uninterrupted single-process run")
			}
		})
	}
}

// TestResumeCoordinateCompleteJournalDispatchesNothing: re-running a
// finished sweep is a pure journal read.
func TestResumeCoordinateCompleteJournalDispatchesNothing(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)
	want, err := ResumeCoordinate(spec, path, 4, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(sp ShardSpec) (ShardResult, error) {
		t.Errorf("complete journal re-dispatched shard %s", sp.SpanRange())
		return ShardResult{}, fmt.Errorf("should not run")
	}
	got, err := ResumeCoordinate(spec, path, 4, refuse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
		t.Fatal("journal replay differs from the original merge")
	}
}

// TestResumeCoordinateFreshRunMatchesCoordinate: journaling must not
// perturb results — a fresh journaled sweep equals the plain coordinator
// bit for bit.
func TestResumeCoordinateFreshRunMatchesCoordinate(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	got, err := ResumeCoordinate(spec, tmpJournal(t), 5, LocalRunner(reg), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Coordinate(spec, 5, LocalRunner(reg), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
		t.Fatal("journaled sweep differs from plain Coordinate")
	}
}

// TestResumeCoordinateOverNetworkWorkers closes the loop on the two new
// subsystems together: a journaling coordinator dispatching to TCP
// workers is killed (runner-side) partway, then resumed against the same
// fleet, and the final merge is bitwise identical to the unsharded run.
func TestResumeCoordinateOverNetworkWorkers(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	srv1 := startTestServer(t, reg)
	srv2 := startTestServer(t, reg)
	pool := testPool(t, RemoteOptions{}, srv1, srv2)
	path := tmpJournal(t)

	var completed atomic.Int64
	netRun := pool.Runner()
	dying := func(sp ShardSpec) (ShardResult, error) {
		if completed.Load() >= 2 {
			return ShardResult{}, fmt.Errorf("injected coordinator death")
		}
		res, err := netRun(sp)
		if err == nil {
			completed.Add(1)
		}
		return res, err
	}
	if _, err := ResumeCoordinate(spec, path, 6, dying, Options{Parallel: 1}); err == nil {
		t.Fatal("killed sweep reported success")
	}
	merged, err := ResumeCoordinate(spec, path, 6, netRun, Options{Parallel: 2, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	expectTallyBitwise(t, spec, merged)
}

// TestResumeHoldsOneMergeWhateverTheRecordCount: a journal holding 99 of
// 100 shards of 256 KB results resumes with one shard to dispatch, and the
// live heap when that shard is done is within 8 MB of the heap before the
// resume. A replay that kept its records would hold all 99 there.
func TestResumeHoldsOneMergeWhateverTheRecordCount(t *testing.T) {
	reg, spec := wideDistRegistry()
	path := tmpJournal(t)
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := spec.Partition(100)
	for _, sp := range parts[:99] {
		res, err := Run(sp, reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	var during uint64
	calls := 0
	opts := Options{Parallel: 1, OnShardDone: func(int, int, ShardResult) {
		calls++
		during = liveHeap()
	}}
	res, err := ResumeCoordinate(spec, path, 100, LocalRunner(reg), opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !res.Complete() {
		t.Fatalf("resume dispatched %d shards (want 1), complete %v", calls, res.Complete())
	}
	t.Logf("live heap %.1f MB before the resume, %.1f MB at its one shard",
		float64(before)/(1<<20), float64(during)/(1<<20))
	if during > before+8<<20 {
		t.Errorf("live heap grew from %.1f MB before the resume to %.1f MB at its one shard",
			float64(before)/(1<<20), float64(during)/(1<<20))
	}
}

// TestJournalCorruptLengthIsTornWithoutAllocating: a last record whose
// length field claims a 32 MiB payload, with 10 bytes left in the file,
// is a torn tail: replay keeps the intact record before it, truncates the
// file back to it, and never allocates the claimed payload.
func TestJournalCorruptLengthIsTornWithoutAllocating(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec.Shard(0, 50), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFramePayload)
	corrupt := append(append(slices.Clone(intact), hdr[:]...), make([]byte, 10)...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j2, replayed, err := OpenJournal(path, spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 1 || !bytes.Equal(encodeOrDie(t, replayed[0]), encodeOrDie(t, res)) {
		t.Fatalf("replayed %d records, want the one intact record", len(replayed))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("replay allocated %d bytes for a 32 MiB length claim", grew)
	}
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, intact) {
		t.Errorf("torn tail not truncated: file is %d bytes, want %d", len(kept), len(intact))
	}
}
