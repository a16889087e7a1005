package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"stochsynth/internal/shard"
)

const (
	// coldSetups is how many fresh environments the untraced pass builds;
	// setup_s is their median.
	coldSetups = 7
	// minReps is the least number of timed reps, however short the run.
	minReps = 5
)

// probeSpecs are the one-trial sweeps a set-up runs.
func probeSpecs(specs []shard.SweepSpec) []shard.SweepSpec {
	probe := append([]shard.SweepSpec(nil), specs...)
	for i := range probe {
		probe[i].Trials = 1
	}
	return probe
}

// timedRep runs one rep, traced into rt when rt is non-nil, and returns
// its throughput. Journal files are removed after the clock stops.
func (e *env) timedRep(specs []shard.SweepSpec, rt *repTrace) (float64, []shard.ShardResult, error) {
	e.trace.Store(rt)
	t0 := time.Now()
	res, err := e.rep(specs)
	d := time.Since(t0)
	e.trace.Store(nil)
	e.removeJournals()
	return float64(totalTrials(specs)) / d.Seconds(), res, err
}

// e2ePass measures the end-to-end metrics of one workload, untraced:
// cold set-ups, one untimed 1-shard reference, then timed reps of the
// identical sweeps until the run's time is spent, each checked byte for
// byte against the reference.
func e2ePass(w *workload, cfg config) (passResult, error) {
	var pr passResult
	specs := w.sweeps(cfg.seed, cfg.scale)
	probe := probeSpecs(specs)
	var e *env
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		if e != nil {
			pr.countAttempts(e)
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(w, cfg.workdir, probe); err != nil {
			return pr, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	ref := make([]shard.ShardResult, len(specs))
	refBytes := make([][]byte, len(specs))
	for k, s := range specs {
		r, err := shard.Run(s.Shard(0, s.Trials), e.reg)
		if err != nil {
			return pr, fmt.Errorf("%s reference run: %w", w.name, err)
		}
		if refBytes[k], err = r.Encode(); err != nil {
			return pr, err
		}
		ref[k] = r
	}
	pr.check(w.check(specs, ref))

	rssNote := resetPeakRSS()
	var tps []float64
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < cfg.seconds; rep++ {
		v, res, err := e.timedRep(specs, nil)
		if err != nil {
			return pr, fmt.Errorf("%s rep %d: %w", w.name, rep, err)
		}
		tps = append(tps, v)
		var fails []string
		for k, r := range res {
			if b, err := r.Encode(); err != nil || !bytes.Equal(b, refBytes[k]) {
				fails = append(fails, fmt.Sprintf("%s rep %d sweep %d: merged result differs from the 1-shard reference", w.name, rep, k))
			}
		}
		pr.check(fails, len(res))
	}
	peak := peakRSSMB()
	pr.countAttempts(e)
	if w.fleet {
		pr.Info = append(pr.Info, fmt.Sprintf("loopback connections opened by the last set-up's pool: %d", e.dials.Load()))
	}

	q1, q3 := quartiles(tps)
	pr.add("trials_per_s", median(tps), "trials/s", fmt.Sprintf("median of %d reps, q1 %.1f, q3 %.1f", len(tps), q1, q3))
	q1, q3 = quartiles(setups)
	pr.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d cold set-ups, q1 %.6f, q3 %.6f", len(setups), q1, q3))
	pr.add("peak_rss_mb", peak, "MB", rssNote)
	pr.addExtra("fail_frac", pr.failFrac(), "ratio",
		fmt.Sprintf("(%d failed attempts + %d failed checks) / (%d attempts + %d checks)",
			pr.FailedAttempts, len(pr.Failures), pr.Attempts, pr.Checks))
	return pr, nil
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark, so VmHWM covers only what follows.
func resetPeakRSS() string {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return "VmHWM since process start; the peak could not be reset: " + err.Error()
	}
	return "VmHWM over the timed reps"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
