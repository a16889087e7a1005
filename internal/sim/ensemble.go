package sim

import (
	"math"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
)

// Ensemble holds per-species mean and variance time-courses estimated from
// many independent trajectories on a fixed time grid.
type Ensemble struct {
	// Times is the sampling grid.
	Times []float64
	// Mean[k][s] is the ensemble mean count of species s at Times[k].
	Mean [][]float64
	// Var[k][s] is the unbiased ensemble variance of species s at Times[k].
	Var [][]float64
	// Trials is the number of trajectories aggregated.
	Trials int
}

// StdErr returns the standard error of the mean of species s at grid
// point k.
func (e *Ensemble) StdErr(k int, s chem.Species) float64 {
	if e.Trials < 2 {
		return 0
	}
	return math.Sqrt(e.Var[k][s] / float64(e.Trials))
}

// ensembleStripes is the fixed number of accumulation stripes. It bounds
// useful parallelism for one ensemble and is part of the reproducibility
// contract: changing it changes last-bit rounding of every ensemble, so
// treat it like a format constant.
const ensembleStripes = 64

// welford is one worker's running mean/M2 accumulator over the grid.
type welford struct {
	n    int64
	mean [][]float64 // [grid][species]
	m2   [][]float64
}

func newWelford(gridLen, numSpecies int) *welford {
	w := &welford{
		mean: make([][]float64, gridLen),
		m2:   make([][]float64, gridLen),
	}
	for k := range w.mean {
		w.mean[k] = make([]float64, numSpecies)
		w.m2[k] = make([]float64, numSpecies)
	}
	return w
}

func (w *welford) add(k int, st chem.State) {
	if k == 0 {
		w.n++ // count the trial once, on the first grid point
	}
	n := float64(w.n)
	mean, m2 := w.mean[k], w.m2[k]
	for s, c := range st {
		x := float64(c)
		delta := x - mean[s]
		mean[s] += delta / n
		m2[s] += delta * (x - mean[s])
	}
}

// merge folds other into w with Chan et al.'s parallel variance update.
func (w *welford) merge(other *welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		w.n, w.mean, w.m2 = other.n, other.mean, other.m2
		return
	}
	nA, nB := float64(w.n), float64(other.n)
	nAB := nA + nB
	for k := range w.mean {
		meanA, m2A := w.mean[k], w.m2[k]
		meanB, m2B := other.mean[k], other.m2[k]
		for s := range meanA {
			delta := meanB[s] - meanA[s]
			meanA[s] += delta * nB / nAB
			m2A[s] += m2B[s] + delta*delta*nA*nB/nAB
		}
	}
	w.n += other.n
}

// EnsembleStats runs cfg.Trials independent exact trajectories of net
// (from its default initial state) and samples every species' count at
// the given time grid, which must be finite, non-negative, strictly
// increasing and non-empty. Sampling is exact: the engine is stepped with
// each grid time as the horizon, so the recorded state is the true state
// at that instant. newEngine builds each worker's engine; any exact
// Engine gives the same distribution.
//
// Trials run on mc's striped pool (mc.ForEachTrial, cfg.Workers bounding
// it), with trial t drawing from the stream (cfg.Seed, t), so the set of
// trajectories is independent of scheduling. Accumulation uses a fixed
// stripe scheme: the pool's indices are the stripes, trial t always feeds
// the Welford accumulator of stripe t % ensembleStripes in trial order,
// and the stripes are merged in stripe order, so the floating-point
// operation sequence — and hence every Mean/Var bit — is identical for
// every worker count. A panic in newEngine or a trial reaches the caller
// as mc's "mc: trial body panicked" panic.
func EnsembleStats(net *chem.Network, grid []float64, cfg mc.Config, newEngine func(*rng.PCG) Engine) *Ensemble {
	if len(grid) == 0 {
		panic("sim: EnsembleStats with empty grid")
	}
	for i, t := range grid {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			panic("sim: EnsembleStats grid must be finite")
		}
		if i > 0 && t <= grid[i-1] {
			panic("sim: EnsembleStats grid must be strictly increasing")
		}
	}
	if grid[0] < 0 {
		panic("sim: EnsembleStats grid must be non-negative")
	}
	trials := cfg.Trials
	if trials <= 0 {
		panic("sim: EnsembleStats needs positive trials")
	}
	// Stripes — not workers — own accumulators: trial t always feeds
	// stripe t % ensembleStripes sequentially in trial order, whichever
	// worker computes it, so the accumulation is a pure function of
	// (net, grid, trials, seed) and bit-identical across worker counts.
	stripes := min(ensembleStripes, trials)
	numSpecies := net.NumSpecies()
	accs := make([]*welford, stripes)
	for s := range accs {
		accs[s] = newWelford(len(grid), numSpecies)
	}
	st0 := net.InitialState()
	type worker struct {
		gen *rng.PCG
		eng Engine
	}
	mc.ForEachTrial(cfg, 0, stripes,
		func(gen *rng.PCG) worker { return worker{gen, newEngine(gen)} },
		func(_, stripe int, w worker) {
			acc := accs[stripe]
			for trial := stripe; trial < trials; trial += stripes {
				w.gen.Reseed(cfg.Seed, uint64(trial))
				w.eng.Reset(st0, 0)
				for k, t := range grid {
					for {
						_, status := w.eng.Step(t)
						if status != Fired {
							break // Horizon or Quiescent: state is exact at t
						}
					}
					acc.add(k, w.eng.State())
				}
			}
		})

	// Deterministic merge in stripe order.
	total := accs[0]
	for _, acc := range accs[1:] {
		total.merge(acc)
	}

	e := &Ensemble{
		Times:  append([]float64(nil), grid...),
		Trials: trials,
		Mean:   total.mean,
		Var:    make([][]float64, len(grid)),
	}
	for k := range grid {
		e.Var[k] = make([]float64, numSpecies)
		if trials > 1 {
			for s := 0; s < numSpecies; s++ {
				e.Var[k][s] = total.m2[k][s] / float64(trials-1)
			}
		}
	}
	return e
}
