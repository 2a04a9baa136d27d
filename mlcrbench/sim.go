package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// simParams sizes the sim-replay workload.
type simParams struct {
	copies      int     // FStartBench clones in the catalog
	jitter      float64 // per-clone timing jitter
	invocations int     // trace length (one pass replays all of it)
	zipfS       float64 // popularity skew
	rate        float64 // Poisson arrivals per virtual second
	workers     int
	poolMB      float64 // cluster-wide warm-pool budget, split per worker
	router      string
	parallelism int
	sample      int64 // traced run: keep the spans of every sample-th invocation per worker
	setups      int   // set-ups per run; setup_s is their median
}

// simTotals are one replay's decision totals; every pass of one trace
// must produce the same.
type simTotals struct {
	invocations, colds                 int
	startup                            time.Duration
	evictions, expirations, rejections int
	reuse                              [4]int
	cleanerOps                         int
}

func totalsOf(res cluster.Result) simTotals {
	var t simTotals
	for _, w := range res.PerWorker {
		t.invocations += w.Metrics.Count()
		t.colds += w.Metrics.ColdStarts()
		t.startup += w.Metrics.TotalStartup()
		t.evictions += w.PoolStats.Evictions
		t.expirations += w.PoolStats.Expirations
		t.rejections += w.PoolStats.Rejections
		for i, n := range w.Metrics.ByLevel() {
			t.reuse[i] += n
		}
		ops := w.CleanerOps
		t.cleanerOps += ops.Repacks + ops.Unmounts + ops.Mounts + ops.UserWipes
	}
	return t
}

// simBench is sim-replay after set-up.
type simBench struct {
	p     simParams
	w     workload.Workload
	first *simTotals
	p99ms float64 // exact p99 virtual startup of the first replay
}

func setupSim(p simParams, seed int64) (*simBench, setupTimes) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	fns := catalog(p.copies, p.jitter, rng)
	w := workload.Workload{Name: "sim-replay", Functions: fns, Invocations: zipfTrace(fns, p.invocations, p.zipfS, p.rate, rng)}
	return &simBench{p: p, w: w}, setupTimes{gen: time.Since(t0).Seconds()}
}

// config is the cluster configuration: Greedy-Match on every worker with
// its own evictor pairing, wrapped by tr when tracing.
func (b *simBench) config(tr *tracer) cluster.Config {
	mk := func() policy.Evictored {
		s, _ := policy.NewByName("Greedy-Match", 0)
		return s
	}
	cfg := cluster.Config{
		Workers:        b.p.workers,
		PoolCapacityMB: b.p.poolMB,
		Router:         b.p.router,
		RouterSeed:     1,
		Parallelism:    b.p.parallelism,
	}
	if tr == nil {
		cfg.NewScheduler = func(int) platform.Scheduler { return mk() }
		cfg.NewEvictor = func(int) pool.Evictor { return mk().Evictor() }
		return cfg
	}
	// One wrapped scheduler per worker, built by whichever factory the
	// worker calls first; its Evictor() supplies the worker's wrapped
	// evictor, so both record into one unit. Each worker calls its
	// factories from its own goroutine, so slot i has one writer.
	scheds := make([]*tracedSched, b.p.workers)
	get := func(i int) *tracedSched {
		if scheds[i] == nil {
			scheds[i] = tr.wrapSched(mk(), i).(*tracedSched)
		}
		return scheds[i]
	}
	cfg.NewScheduler = func(i int) platform.Scheduler { return get(i) }
	cfg.NewEvictor = func(i int) pool.Evictor { return get(i).Evictor() }
	return cfg
}

// simPass is one replay's measurement.
type simPass struct {
	host   float64 // host seconds the replay ran (see steal.go)
	totals simTotals
	routed []int
}

// pass replays the whole trace, after a collection (each replay starts on
// a clean heap), and checks it against the first replay of this process:
// every record served, identical decision totals.
func (b *simBench) pass(tr *tracer, pass int64) (simPass, error) {
	cfg := b.config(tr)
	runtime.GC()
	var root span
	if tr != nil {
		tr.pass = pass
		root = span{kind: kindRun, req: pass<<40 | simRootBit, root: -1, start: tr.now()}
	}
	clock := readSteal()
	res := cluster.Run(cfg, b.w)
	r := simPass{host: clock.hostSeconds(), totals: totalsOf(res), routed: res.Routed}
	if tr != nil {
		root.end = tr.now()
		tr.runs = append(tr.runs, root)
	}
	n := len(b.w.Invocations)
	routed := 0
	for _, k := range res.Routed {
		routed += k
	}
	if routed != n || r.totals.invocations != n {
		return r, fmt.Errorf("replay served %d (routed %d) of %d records", r.totals.invocations, routed, n)
	}
	if r.totals.colds+r.totals.reuse[1]+r.totals.reuse[2]+r.totals.reuse[3] != n {
		return r, fmt.Errorf("cold %d + warm by level %v != invocations %d", r.totals.colds, r.totals.reuse[1:], n)
	}
	if b.first == nil {
		t := r.totals
		b.first = &t
		b.p99ms = startupP99(res)
	} else if r.totals != *b.first {
		return r, fmt.Errorf("replay totals %+v differ from the first replay's %+v", r.totals, *b.first)
	}
	return r, nil
}

// startupP99 is the exact 99th-percentile virtual startup (ms) of the
// first replay; later replays are checked to decide identically.
func startupP99(res cluster.Result) float64 {
	var all []float64
	for _, w := range res.PerWorker {
		all = append(all, w.Metrics.Latencies()...)
	}
	slices.Sort(all)
	return quantile(all, 0.99) * 1e3
}

// passes replays until seconds of replays have run (at least three of
// each kind). With a tracer, untraced and traced replays alternate.
func (b *simBench) passes(tr *tracer, seconds float64) (plain, traced []simPass, err error) {
	start := time.Now()
	for len(plain) < 3 || time.Since(start).Seconds() < seconds {
		r, err := b.pass(nil, 0)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, r)
		if tr == nil {
			continue
		}
		r, err = b.pass(tr, int64(len(traced)))
		if err != nil {
			return nil, nil, err
		}
		traced = append(traced, r)
	}
	return plain, traced, nil
}

// runSim runs sim-replay: set-up (repeated, median reported), one
// warm-up replay, then measured replays until seconds have elapsed.
// With trace, untraced and traced replays share the seconds, and every
// replay must reproduce the first one's decision totals.
func runSim(p simParams, seed int64, seconds float64, trace bool, spansOut string) (*report, error) {
	rep := newReport()
	var times []setupTimes
	var b *simBench
	for i := 0; i < p.setups; i++ {
		var st setupTimes
		b, st = setupSim(p, seed)
		times = append(times, st)
		runtime.GC() // start the next set-up on a clean heap, so peak RSS does not depend on GC timing
	}
	rep.setup(times)
	if _, err := b.pass(nil, 0); err != nil { // warm-up; fixes the reference totals
		return nil, err
	}
	var tr *tracer
	if trace {
		tr = newTracer(p.sample, false, 0, 0)
	}
	plain, traced, err := b.passes(tr, seconds)
	if err != nil {
		return nil, err
	}
	rep.attempted = int64((len(plain) + len(traced)) * len(b.w.Invocations))
	if !trace {
		rep.simEndToEnd(plain, b)
		return rep, nil
	}
	var route []float64
	for i := 0; i < 3; i++ {
		clock := readSteal()
		cluster.Route(p.router, cluster.RouterConfig{Workers: p.workers, Seed: 1}, b.w, p.parallelism, nil)
		route = append(route, clock.hostSeconds()*1e9)
	}
	rep.simLayers(b, plain, traced, tr.totals(), median(route))
	return rep, tr.write(spansOut)
}
