package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stochsynth/internal/scenario"
	"stochsynth/internal/shard"
)

// env is one set-up of a workload: the coordinator's registry and, for the
// fleet, two loopback workers, the pool that dials them and a journal
// directory. Every shard attempt goes through the benchmark's runner
// wrapper, which counts attempts and failures and, during a traced rep,
// records a span per attempt.
type env struct {
	w       *workload
	reg     *shard.Registry
	runner  shard.Runner
	servers []*shard.Server
	pool    *shard.RemotePool
	dir     string
	nextJnl int

	attempts, failures, dials atomic.Int64
	trace                     atomic.Pointer[repTrace]
}

// newRegistry builds the registry sweepd serves: the builtins plus the
// scenario library.
func newRegistry() *shard.Registry {
	reg := shard.Builtin()
	scenario.Register(reg)
	return reg
}

// setup builds a cold environment and runs the one-trial probe sweeps
// through its runner, which pays for model synthesis, compilation and, on
// the fleet, dial and handshake.
func setup(w *workload, workdir string, probe []shard.SweepSpec) (*env, error) {
	dir, err := os.MkdirTemp(workdir, "journals-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, reg: newRegistry(), dir: dir}
	inner := shard.LocalRunner(e.reg)
	if w.fleet {
		var addrs []string
		for i := 0; i < 2; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				e.close()
				return nil, err
			}
			srv := shard.Serve(ln, newRegistry())
			e.servers = append(e.servers, srv)
			addrs = append(addrs, srv.Addr().String())
		}
		// The dialer is the pool's default (TCP, 5 s timeout), wrapped only
		// to count the connections the pool opens.
		e.pool, err = shard.NewRemotePool(addrs, shard.RemoteOptions{Dial: func(addr string) (net.Conn, error) {
			e.dials.Add(1)
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}})
		if err != nil {
			e.close()
			return nil, err
		}
		inner = e.pool.Runner()
	}
	e.runner = e.wrap(inner)
	if _, err := e.rep(probe); err != nil {
		e.close()
		return nil, fmt.Errorf("%s probe sweep: %w", w.name, err)
	}
	e.removeJournals()
	return e, nil
}

func (e *env) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	os.RemoveAll(e.dir)
}

// rep runs every sweep of the workload once through the workload's entry
// point: Coordinate in-process, ResumeCoordinate into a fresh journal on
// the fleet. The journals are left for removeJournals, outside the timing.
func (e *env) rep(specs []shard.SweepSpec) ([]shard.ShardResult, error) {
	out := make([]shard.ShardResult, len(specs))
	opts := shard.Options{Parallel: e.w.parallel, Retries: 1}
	rt := e.trace.Load()
	for k, spec := range specs {
		id := 0
		if rt != nil {
			// Set before Coordinate starts its dispatch goroutines, which
			// read them; nothing writes them while a sweep is in flight.
			id = rt.tr.begin("coordinate", 0, -1)
			rt.sweep, rt.parent = k, id
		}
		var res shard.ShardResult
		var err error
		if e.w.fleet {
			path := filepath.Join(e.dir, fmt.Sprintf("rep-%d.journal", e.nextJnl))
			e.nextJnl++
			res, err = shard.ResumeCoordinate(spec, path, e.w.shards, e.runner, opts)
		} else {
			res, err = shard.Coordinate(spec, e.w.shards, e.runner, opts)
		}
		if rt != nil {
			rt.tr.end(id)
		}
		if err != nil {
			return nil, err
		}
		out[k] = res
	}
	return out, nil
}

func (e *env) removeJournals() {
	for ; e.nextJnl > 0; e.nextJnl-- {
		os.Remove(filepath.Join(e.dir, fmt.Sprintf("rep-%d.journal", e.nextJnl-1)))
	}
}

func (e *env) wrap(inner shard.Runner) shard.Runner {
	return func(spec shard.ShardSpec) (shard.ShardResult, error) {
		e.attempts.Add(1)
		rt := e.trace.Load()
		id := 0
		if rt != nil {
			id = rt.tr.begin("runner", rt.parent, -1)
		}
		res, err := inner(spec)
		if err != nil {
			e.failures.Add(1)
		}
		if rt != nil {
			rt.record(id, spec, err)
		}
		return res, err
	}
}

// repTrace records one traced rep: the coordinate → runner spans and the
// shard specs the coordinator dispatched, which the decomposed replay
// runs again.
type repTrace struct {
	tr            *tracer
	sweep, parent int

	mu    sync.Mutex
	calls []runnerCall
}

type runnerCall struct {
	sweep int
	span  int
	spec  shard.ShardSpec
	ok    bool
}

func (rt *repTrace) record(id int, spec shard.ShardSpec, err error) {
	rt.tr.end(id)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.calls = append(rt.calls, runnerCall{sweep: rt.sweep, span: id, spec: spec, ok: err == nil})
}

// dispatched is one shard of a traced rep: its global index (shard order
// within each sweep, sweeps in order), its spec, and its runner spans.
type dispatched struct {
	index int
	sweep int
	spec  shard.ShardSpec
	spans []int
}

// shards numbers the dispatched shards by trial range within each sweep,
// stamps that index on their runner spans, and returns them in index
// order.
func (rt *repTrace) shards() []dispatched {
	rt.mu.Lock()
	calls := append([]runnerCall(nil), rt.calls...)
	rt.mu.Unlock()
	sort.SliceStable(calls, func(i, j int) bool {
		if calls[i].sweep != calls[j].sweep {
			return calls[i].sweep < calls[j].sweep
		}
		return calls[i].spec.Lo < calls[j].spec.Lo
	})
	var out []dispatched
	for _, c := range calls {
		n := len(out)
		if n == 0 || out[n-1].sweep != c.sweep || out[n-1].spec.Lo != c.spec.Lo {
			out = append(out, dispatched{index: n, sweep: c.sweep, spec: c.spec})
			n++
		}
		d := &out[n-1]
		if c.ok {
			d.spec = c.spec
		}
		d.spans = append(d.spans, c.span)
		rt.tr.setShard(c.span, d.index)
	}
	return out
}
