package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"sync"
	"syscall"
)

// The shard journal makes a coordinator crash-safe: every completed
// ShardResult is appended to an fsync'd, checksummed record log before it
// counts as done, so a coordinator killed partway through a 100k-trial
// sweep resumes from the journal and dispatches only the missing trial
// ranges — and because shards are pure functions of their specs and the
// merge is partition- and order-independent, the resumed sweep's final
// result is bit-for-bit identical to an uninterrupted run.
//
// File layout:
//
//	8 bytes   magic "SSJRNL1\n" (format version baked into the magic)
//	records   each: uint32 BE payload length | uint32 BE IEEE CRC-32 of
//	          payload | payload bytes
//
// The first record's payload is the canonical full-sweep ShardSpec JSON
// (the sweep identity the journal belongs to); every later record is one
// ShardResult JSON. Appends write the whole record and fsync before
// returning, so a record is either durably complete or detectably torn.
//
// Torn-tail rule: replay stops at the first record that is truncated or
// fails its checksum, and the file is truncated back to the last intact
// record. Discarding a possibly-valid tail is always safe — it only means
// the covered ranges are recomputed, and recomputation is exact.
const journalMagic = "SSJRNL1\n"

// Journal is an append-only log of completed shard results for one sweep.
// It is safe for concurrent Append calls (the coordinator completes
// shards concurrently).
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	want ShardResult // identity header results must match
	err  error       // first append failure; the journal is dead after one
}

// OpenJournal opens (or creates) the journal for spec at path and replays
// it: it validates the header against spec, decodes every intact result
// record, truncates a torn tail, and leaves the file positioned for
// appending. The replayed results are returned for the caller to merge;
// they are individually validated but not yet checked for overlap (the
// merge does that). ResumeCoordinate replays through the same loop but
// folds each record into its running merge as it is read, so it never
// holds the whole journal.
func OpenJournal(path string, spec SweepSpec) (*Journal, []ShardResult, error) {
	var results []ShardResult
	j, err := openJournal(path, spec, func(res ShardResult) error {
		results = append(results, res)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return j, results, nil
}

// openJournal is OpenJournal handing each replayed result to each, in
// record order, instead of collecting them. An error from each stops the
// replay and is returned before the file is locked or changed.
func openJournal(path string, spec SweepSpec, each func(ShardResult) error) (*Journal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	full := spec.Shard(0, spec.Trials)
	good, err := replayJournal(path, full, each)
	if err != nil {
		return nil, err
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shard: opening journal: %w", err)
	}
	// Exclusive advisory lock, held until Close: two coordinators
	// appending to one journal (a resume rerun racing a hung original)
	// would interleave records byte-wise and append duplicate coverage —
	// corruption the torn-tail rule would then "repair" by discarding
	// durable results. The lock is taken before any mutation below, so a
	// second OpenJournal fails cleanly instead.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("shard: journal %s is in use by another coordinator: %w", path, err)
	}
	j := &Journal{f: f, want: resultHeader(full)}
	if good == 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("shard: resetting journal: %w", err)
		}
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("shard: writing journal magic: %w", err)
		}
		header, err := full.Encode()
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := j.appendRecord(header); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("shard: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replayJournal reads the journal at path one record at a time: it checks
// the magic and the header record against full, hands each intact result
// record to each, and returns how many bytes of the file survive replay
// (0: rewrite it from scratch). It holds one record at a time, and never
// allocates a payload longer than the bytes left in the file, so a corrupt
// length reads as a torn tail whatever it claims.
func replayJournal(path string, full ShardSpec, each func(ShardResult) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("shard: reading journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("shard: reading journal: %w", err)
	}
	size := info.Size()
	r := bufio.NewReader(io.LimitReader(f, size))

	magic := make([]byte, min(size, int64(len(journalMagic))))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, fmt.Errorf("shard: reading journal: %w", err)
	}
	if string(magic) != journalMagic[:len(magic)] {
		// Never truncate a file that was not written by us.
		return 0, fmt.Errorf("shard: %s is not a shard journal (bad magic)", path)
	}
	if len(magic) < len(journalMagic) {
		// A crash mid-creation left a prefix of our magic: rewrite it.
		return 0, nil
	}
	good := int64(len(journalMagic)) // bytes that survive replay
	headerSeen := false
	records := 0
	var buf []byte
	for {
		payload, ok, err := readJournalRecord(r, size-good, buf)
		if err != nil {
			return 0, fmt.Errorf("shard: reading journal: %w", err)
		}
		if !ok {
			break // torn tail starts at offset good
		}
		buf = payload
		if !headerSeen {
			hdr, err := DecodeSpec(payload)
			if err != nil {
				return 0, fmt.Errorf("shard: journal header: %w", err)
			}
			if err := sameSweep(hdr, full); err != nil {
				return 0, fmt.Errorf("shard: journal %s belongs to a different sweep: %w", path, err)
			}
			headerSeen = true
		} else {
			records++
			res, err := DecodeResult(payload)
			if err != nil {
				// The checksum passed but the content is wrong: that is
				// not a torn write, it is a logic error — fail loudly.
				return 0, fmt.Errorf("shard: journal record %d: %w", records, err)
			}
			if err := headerCompatible(resultHeader(full), res); err != nil {
				return 0, fmt.Errorf("shard: journal record %d: %w", records, err)
			}
			if err := each(res); err != nil {
				return 0, err
			}
		}
		good += 8 + int64(len(payload))
	}
	if !headerSeen {
		return 0, nil // the header itself was torn; start over
	}
	return good, nil
}

// readJournalRecord reads one record from r, which holds left more bytes,
// reporting !ok for anything torn: a short header, an implausible length,
// a short payload, or a checksum mismatch. A length longer than the bytes
// left is torn before anything is allocated. The payload reuses buf's
// storage when it fits.
func readJournalRecord(r io.Reader, left int64, buf []byte) (payload []byte, ok bool, err error) {
	var hdr [8]byte
	if left < int64(len(hdr)) {
		return nil, false, nil
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false, tornRead(err)
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length == 0 || length > MaxFramePayload || int64(length) > left-int64(len(hdr)) {
		return nil, false, nil
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	payload = buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, false, tornRead(err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, false, nil
	}
	return payload, true, nil
}

// tornRead maps a short read (the file shrank under the replay) to a torn
// tail, and passes any other read failure on.
func tornRead(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// sameSweep checks that a journal header names exactly the canonical
// full-sweep spec.
func sameSweep(hdr, full ShardSpec) error {
	if hdr.Sweep != full.Sweep || hdr.Trials != full.Trials || hdr.Seed != full.Seed ||
		hdr.Outcomes != full.Outcomes || hdr.Numeric != full.Numeric || hdr.Dist != full.Dist ||
		hdr.Lo != full.Lo || hdr.Hi != full.Hi || len(hdr.Grid) != len(full.Grid) {
		return fmt.Errorf("header %+v, want %+v", hdr, full)
	}
	// For network sweeps the content-addressed Sweep id already pins the
	// model; the field comparison is belt and braces against a journal
	// written by a build with a different hash recipe.
	if !equalNetworkSpec(hdr.Network, full.Network) {
		return fmt.Errorf("journal header carries a different network payload")
	}
	for i := range hdr.Grid {
		if math.Float64bits(hdr.Grid[i]) != math.Float64bits(full.Grid[i]) {
			return fmt.Errorf("grid point %d is %v, want %v", i, hdr.Grid[i], full.Grid[i])
		}
	}
	return nil
}

// resultHeader is the identity header a result of the sweep must carry.
func resultHeader(full ShardSpec) ShardResult {
	return ShardResult{
		Version: FormatVersion, Sweep: full.Sweep, Grid: full.Grid, Trials: full.Trials,
		Seed: full.Seed, Outcomes: full.Outcomes, Numeric: full.Numeric, Dist: full.Dist,
	}
}

// Append durably records one completed shard result: the record is
// written and fsync'd before Append returns. The first failure poisons
// the journal — a coordinator must not keep computing against a log that
// can no longer hold its results.
func (j *Journal) Append(res ShardResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := headerCompatible(j.want, res); err != nil {
		return err
	}
	payload, err := res.Encode()
	if err != nil {
		return err
	}
	// The fsync deliberately happens under j.mu: a record must be durable
	// before the next Append can write behind it, so write order, record
	// order and durability order are one and the same. Concurrent shard
	// completions serialize here by design; nothing else contends on j.mu.
	return j.appendRecord(payload) //stochlint:allow locksafe
}

// appendRecord writes one length+crc+payload record and fsyncs. Callers
// hold j.mu (or are still single-threaded in OpenJournal).
func (j *Journal) appendRecord(payload []byte) error {
	if len(payload) > MaxFramePayload {
		// Replay enforces this bound (readJournalRecord treats larger
		// lengths as a torn tail), so writing past it would durably store
		// a record that resume then truncates away along with everything
		// after it. Refuse at write time instead; the shard stays
		// un-journaled and the coordinator reports the failure.
		return fmt.Errorf("shard: journal record of %d bytes exceeds the %d-byte bound", len(payload), MaxFramePayload)
	}
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	if _, err := j.f.Write(buf); err != nil {
		j.err = fmt.Errorf("shard: journal append: %w", err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("shard: journal fsync: %w", err)
		return j.err
	}
	return nil
}

// Close releases the journal's lock and closes the file. Results already
// appended stay durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close() // closing the fd releases the flock
}

// ResumeCoordinate is Coordinate with crash safety: completed shards are
// journaled at path, and a sweep that previously died — coordinator
// killed, workers lost, journal tail torn mid-record — picks up from the
// journal, dispatching only the trial ranges it does not already hold.
// On a fresh path it simply runs the whole sweep with journaling on. The
// final merge is bit-for-bit identical to an uninterrupted single-process
// run, however many times the sweep was interrupted and resumed.
//
// The shards argument sets the dispatch granularity exactly as in
// Coordinate: missing ranges are split into chunks of the same target
// size a fresh shards-way partition would use.
//
// Replay reads the journal one record at a time and folds each result into
// the running merge that the dispatch then continues, so memory does not
// grow with the journal's record count or the sweep's shard count.
func ResumeCoordinate(spec SweepSpec, path string, shards int, run Runner, opts Options) (ShardResult, error) {
	merged := &runningMerge{}
	journal, err := openJournal(path, spec, func(res ShardResult) error {
		if err := merged.add(res); err != nil {
			return fmt.Errorf("shard: journal %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return ShardResult{}, err
	}
	defer journal.Close()

	missing := []Range{{Lo: 0, Hi: spec.Trials}}
	if merged.n > 0 {
		if merged.res.Complete() {
			return merged.res, nil
		}
		missing = merged.res.MissingRanges()
	}
	return coordinate(spec, partitionRanges(spec, missing, shards), merged, journal, run, opts)
}

// partitionRanges splits a set of uncovered trial ranges into dispatchable
// shards of roughly the size a fresh shards-way partition would use.
func partitionRanges(spec SweepSpec, missing []Range, shards int) []ShardSpec {
	if shards < 1 {
		shards = 1
	}
	target := (spec.Trials + shards - 1) / shards
	var out []ShardSpec
	for _, rg := range missing {
		for lo := rg.Lo; lo < rg.Hi; lo += target {
			hi := lo + target
			if hi > rg.Hi {
				hi = rg.Hi
			}
			out = append(out, spec.Shard(lo, hi))
		}
	}
	return out
}
