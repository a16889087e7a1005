package lambda

import (
	"testing"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/sim"
)

// chiSqCrit01 holds chi-square critical values at significance 0.01 by
// degrees of freedom (the acceptance level of the hybrid equivalence
// claim: the pooled homogeneity statistic must pass at p > 0.01).
var chiSqCrit01 = map[int]float64{
	1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086,
	6: 16.812, 7: 18.475, 8: 20.090, 9: 21.666, 10: 23.209,
}

// homogeneityChi2 is the pooled two-sample chi-square statistic (df = 1 for
// two outcomes) comparing two tally vectors of equal trial counts.
func homogeneityChi2(t *testing.T, a, b mc.Result, trials int) float64 {
	t.Helper()
	if a.None != 0 || b.None != 0 {
		t.Fatalf("unresolved trials: %d / %d", a.None, b.None)
	}
	pooled := make([]float64, len(a.Counts))
	for i := range pooled {
		pooled[i] = float64(a.Counts[i]+b.Counts[i]) / float64(2*trials)
	}
	sa, err := mc.ChiSquare(a.Counts, pooled)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mc.ChiSquare(b.Counts, pooled)
	if err != nil {
		t.Fatal(err)
	}
	return sa + sb
}

// TestHybridMatchesDirectAcrossMOI is the tentpole's exactness-in-practice
// claim: the hybrid engine's lysis/lysogeny tallies on the 19-reaction
// synthetic model must be homogeneous with Direct's at every MOI. Each MOI
// contributes an independent df=1 homogeneity statistic; the pooled sum is
// tested at significance 0.01 (the acceptance level) and each individual
// MOI at 0.001 (the package's per-test convention, to keep the family-wise
// false-alarm rate sane).
func TestHybridMatchesDirectAcrossMOI(t *testing.T) {
	mois := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	trials := 1200
	if testing.Short() {
		mois = []int64{1, 10}
		trials = 300
	}
	direct := SyntheticModel().WithEngine(sim.EngineDirect)
	hybrid := SyntheticModel().WithEngine(sim.EngineHybrid)
	totalStat := 0.0
	for i, moi := range mois {
		d := direct.Characterize(moi, trials, mc.PointSeed(0xd12ec7, i))
		h := hybrid.Characterize(moi, trials, mc.PointSeed(0x4b81d, i))
		stat := homogeneityChi2(t, d, h, trials)
		totalStat += stat
		const crit999df1 = 10.828
		if stat > crit999df1 {
			t.Errorf("MOI %d: hybrid vs Direct differ: chi2 = %.3f > %.3f (direct %v, hybrid %v)",
				moi, stat, crit999df1, d.Counts, h.Counts)
		}
		t.Logf("MOI %2d: chi2 = %6.3f  direct %v  hybrid %v", moi, stat, d.Counts, h.Counts)
	}
	crit := chiSqCrit01[len(mois)]
	if totalStat > crit {
		t.Errorf("pooled homogeneity chi2 over %d MOIs = %.2f > %.2f (p < 0.01)",
			len(mois), totalStat, crit)
	} else {
		t.Logf("pooled chi2 = %.2f (crit %.2f at p=0.01, df=%d)", totalStat, crit, len(mois))
	}
}

// TestHybridBatchesTheSyntheticHotPath pins why the hybrid is fast: the
// partition must recognise the log-module clock/decay pair as a relay on
// the relay species a, and a characterisation trial must batch the
// overwhelming majority of its events (Direct burns ~50-70k events per
// trial on this model, almost all of them the b → b + a clock and the
// a → ∅ decay).
func TestHybridBatchesTheSyntheticHotPath(t *testing.T) {
	m := SyntheticModel().WithEngine(sim.EngineHybrid)
	gen := rng.New(7)
	eng := m.EngineFactoryAt(5)(gen)
	h, ok := eng.(*sim.Hybrid)
	if !ok {
		t.Fatalf("EngineFactoryAt returned %T, want *sim.Hybrid", eng)
	}
	part := h.Partition()
	if len(part.Relays) != 1 {
		t.Fatalf("partition found %d relays, want 1 (the clock/decay pair): %+v",
			len(part.Relays), part.Relays)
	}
	if got := m.Net.Name(part.Relays[0].A); got != "a" {
		t.Fatalf("relay species = %q, want the log module's transient a", got)
	}
	// The two working channels (the only writers of cro2/ci2) must be
	// pinned slow; the clock and decay must be eligible.
	for i := 0; i < m.Net.NumReactions(); i++ {
		r := m.Net.Reaction(i)
		switch r.Label {
		case "working", "initializing", "reinforcing", "purifying":
			if part.FastEligible[i] {
				t.Errorf("%s channel %d must be slow", r.Label, i)
			}
		case "logarithm":
			if !part.FastEligible[i] {
				t.Errorf("logarithm channel %d must be fast-eligible", i)
			}
		}
	}

	classify := m.Classifier(5)
	var fast int64
	for i := 0; i < 10; i++ {
		gen.Reseed(7, uint64(i))
		if out := classify(h); out == mc.None {
			t.Fatal("trial unresolved")
		}
		fast += h.FastEvents()
	}
	if fast < 10*10_000 {
		t.Errorf("hybrid batched only %d events over 10 trials; want tens of thousands per trial", fast)
	}
	t.Logf("batched %d fast events over 10 trials (~%d per trial)", fast, fast/10)
}

// TestHybridSyntheticWorkCounters pins the hybrid's deterministic work
// counters on the synthetic model at fixed seeds over MOI {1, 5, 10}. The
// relay absorbs the clock and every other step is exact. The relay is
// settled at its gating flips and when the race returns, not on every
// exact step, so a trial makes a handful of propagations over hundreds of
// steps. Per step only the fired channel's dependency row is re-evaluated;
// its size depends on the channel, so the evaluation bound holds for the
// pooled trials, not for each one. Relay activity is re-derived only after
// Reset and after firings that move a gating input (≈ 0.07 gating scans
// per exact step); that bound is pooled too.
func TestHybridSyntheticWorkCounters(t *testing.T) {
	m := SyntheticModel().WithEngine(sim.EngineHybrid)
	channels := int64(m.Net.NumReactions())
	var evals, scans, steps int64
	for _, moi := range []int64{1, 5, 10} {
		gen := rng.NewStream(41, 0)
		h := m.EngineFactoryAt(moi)(gen).(*sim.Hybrid)
		observe := m.Observer(moi)
		type counters struct{ evals, props, scans, steps int64 }
		trial := func(seed uint64) counters {
			gen.Reseed(41, seed)
			o := observe(h)
			if o.Outcome == mc.None {
				t.Fatalf("MOI %d seed %d: trial unresolved", moi, seed)
			}
			return counters{h.PropensityEvals(), h.Propagations(), h.GatingScans(), o.Steps}
		}
		for seed := uint64(0); seed < 10; seed++ {
			c := trial(seed)
			if c.props < 1 || c.props > 10 {
				t.Errorf("MOI %d seed %d: %d relay propagations over %d exact steps, want 1..10",
					moi, seed, c.props, c.steps)
			}
			evals += c.evals - channels
			scans += c.scans
			steps += c.steps
			t.Logf("MOI %2d seed %d: %3d steps, %d propagations, %.2f evaluations/step, %d gating scans",
				moi, seed, c.steps, c.props, float64(c.evals-channels)/float64(c.steps), c.scans)
		}
		if a, b := trial(3), trial(3); a != b {
			t.Errorf("MOI %d: counters differ at one seed: %+v vs %+v", moi, a, b)
		}
		h.Reset(m.Net.InitialState(), 0)
		if n := h.GatingScans(); n != 0 {
			t.Errorf("MOI %d: after Reset %d gating scans, want 0", moi, n)
		}
	}
	perStep := func(n int64) float64 { return float64(n) / float64(steps) }
	if e := perStep(evals); e >= 5 {
		t.Errorf("%.2f single-channel evaluations per exact step over all trials, want < 5", e)
	}
	if s := perStep(scans); s >= 0.25 {
		t.Errorf("%.3f gating scans per exact step over all trials, want < 0.25", s)
	}
	t.Logf("per exact step over all trials: %.2f evaluations, %.3f gating scans",
		perStep(evals), perStep(scans))
}

// TestHybridSyntheticTrialZeroAllocs extends the sim package's Hybrid
// Reset+Step allocation pin to full synthetic-model race trials through
// the Monte Carlo trial bodies (Classifier and Observer): on a reused
// engine a whole trial allocates nothing.
func TestHybridSyntheticTrialZeroAllocs(t *testing.T) {
	m := SyntheticModel().WithEngine(sim.EngineHybrid)
	const moi = 3
	gen := rng.NewStream(43, 0)
	eng := m.EngineFactoryAt(moi)(gen)
	classify := m.Classifier(moi)
	observe := m.Observer(moi)
	classify(eng) // warm up
	var trial uint64
	if n := testing.AllocsPerRun(20, func() {
		trial++
		gen.Reseed(43, trial)
		classify(eng)
	}); n != 0 {
		t.Errorf("Classifier trial allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		trial++
		gen.Reseed(43, trial)
		observe(eng)
	}); n != 0 {
		t.Errorf("Observer trial allocates %.1f times, want 0", n)
	}
}
