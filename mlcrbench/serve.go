package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/api"
	"mlcr/internal/drl"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

// serveParams sizes one gateway workload.
type serveParams struct {
	copies   int     // FStartBench clones in the catalog
	jitter   float64 // per-clone timing jitter
	records  int     // invocations per pass
	poolMB   float64 // gateway warm-pool budget
	shards   int
	clients  int
	mlcr     bool    // serve MLCR (trained in set-up) instead of Greedy-Match
	episodes int     // MLCR training episodes
	zipfS    float64 // serve-mlcr: popularity skew
	rate     float64 // serve-mlcr: Poisson arrivals per virtual second
	sample   int64   // traced run: keep the spans of every sample-th request
	setups   int     // set-ups per run; setup_s is their median
}

// serveBench is a serve workload after set-up: its generated trace and
// the gateway configuration that serves it.
type serveBench struct {
	p     serveParams
	trace []workload.Invocation
	cfg   api.GatewayConfig
	qb    *drl.QBatcher
	maxFn int

	qReq, qBatches int64 // QBatcher requests and flushes during traced passes

	// own, when set, gives client c the records own[c]:own[c+1] instead
	// of a shared cursor over the whole trace.
	own []int

	lat     []int64 // per-request host ns of the current pass
	startup []time.Duration
}

// setupTimes are one set-up's phases, in seconds.
type setupTimes struct{ gen, train, build float64 }

func (s setupTimes) total() float64 { return s.gen + s.train + s.build }

// trainedModel trains the served MLCR model from a fixed seed: the
// FStartBench Overall trace, pool sizes cycling through 20/50/100% of
// its Loose size, and the served configuration (4 slots, 24-wide
// embedding, 48 hidden, deviation margin 0.1).
func trainedModel(episodes int) *mlcr.Scheduler {
	w := fstartbench.BuildOverall(1, fstartbench.OverallOptions{})
	loose := experiments.CalibrateLoose(w)
	return experiments.TrainMLCR(w, loose, []float64{0.2, 0.5, 1}, experiments.Options{Seed: 1, Episodes: episodes})
}

// setupServe generates the inputs from seed, trains the model when the
// workload serves MLCR, and builds the gateway once to time it. The
// returned bench builds its gateways from the same configuration.
func setupServe(p serveParams, seed int64) (*serveBench, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	fns := catalog(p.copies, p.jitter, rng)
	var trace []workload.Invocation
	var own []int
	if p.mlcr {
		trace = zipfTrace(fns, p.records, p.zipfS, p.rate, rng)
	} else {
		trace, own = splitByFn(warmTrace(fns, p.records, 2*maxClients, rng), p.clients)
	}
	st.gen = time.Since(t0).Seconds()

	b := &serveBench{p: p, trace: trace, own: own, lat: make([]int64, len(trace)), startup: make([]time.Duration, len(trace))}
	for _, f := range fns {
		b.maxFn = max(b.maxFn, f.ID)
	}
	b.cfg = api.GatewayConfig{Functions: fns, PoolCapacityMB: p.poolMB, Shards: p.shards}
	if p.mlcr {
		t1 := time.Now()
		master := trainedModel(p.episodes)
		st.train = time.Since(t1).Seconds()
		b.qb = drl.NewQBatcher(master.Agent().Online(), 0)
		b.cfg.NewScheduler = func() platform.Scheduler {
			s := master.Clone()
			s.SetBatcher(b.qb)
			return s
		}
	} else {
		b.cfg.NewScheduler = func() platform.Scheduler {
			s, _ := policy.NewByName("Greedy-Match", 0)
			return s
		}
	}
	t2 := time.Now()
	if _, err := api.NewGateway(b.cfg); err != nil {
		return nil, st, err
	}
	st.build = time.Since(t2).Seconds()
	return b, st, nil
}

// modelWeights flattens a trained model's weights, to check that set-up
// trains the same model every time.
func modelWeights(s *mlcr.Scheduler) []float64 {
	var w []float64
	for _, p := range s.Agent().Online().Params() {
		w = append(w, p.W.Data...)
	}
	return w
}

// gateway builds a gateway over the bench's configuration; a tracer
// wraps every scheduler product (and, through its Evictor method, the
// evictor the gateway derives from it).
func (b *serveBench) gateway(tr *tracer) (*api.Gateway, error) {
	cfg := b.cfg
	if tr != nil {
		mk := cfg.NewScheduler
		cfg.NewScheduler = func() platform.Scheduler { return tr.wrapSched(mk(), -1) }
	}
	return api.NewGateway(cfg)
}

// passResult is one full replay of the trace through a fresh gateway
// generation.
type passResult struct {
	host                               float64 // host seconds the pass ran (see steal.go)
	completed                          int64
	failed                             int64
	colds                              int64
	fastHits                           int64
	p50, p95                           float64 // host ns per Gateway.Do
	meanDo                             float64 // host ns per Gateway.Do
	startMean                          float64 // virtual startup, ms
	startP99                           float64 // virtual startup, ms
	evictions, expirations, rejections int
	reuse                              [4]int // warm starts by match level
}

// clientCount is one client's tally, padded so the two clients do not
// share a cache line.
type clientCount struct {
	completed, failed, colds int64
	_                        [40]byte
}

// pass replays the whole trace through g, after Reset and a collection
// (each pass starts on a clean heap), with the configured number of
// closed-loop clients. It checks the gateway's counters against what
// the clients saw.
func (b *serveBench) pass(g *api.Gateway, tr *tracer, pass int64) (passResult, error) {
	g.Reset()
	runtime.GC()
	var next atomic.Int64
	var counts [maxClients]clientCount
	var wg sync.WaitGroup
	origin := time.Now()
	if tr != nil {
		origin = tr.origin
	}
	clock := readSteal()
	for c := 0; c < b.p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.client(c, g, &next, tr, pass, origin, &counts[c])
		}(c)
	}
	wg.Wait()
	var r passResult
	r.host = clock.hostSeconds()
	for _, c := range counts[:b.p.clients] {
		r.completed += c.completed
		r.failed += c.failed
		r.colds += c.colds
	}
	n := int64(len(b.trace))
	if r.completed+r.failed != n {
		return r, fmt.Errorf("attempted %d != completed %d + failed %d", n, r.completed, r.failed)
	}
	st := g.Stats()
	if int64(st.Invocations) != r.completed {
		return r, fmt.Errorf("Stats().Invocations %d != completed %d", st.Invocations, r.completed)
	}
	if st.ColdStarts+st.WarmStarts != st.Invocations {
		return r, fmt.Errorf("cold %d + warm %d != invocations %d", st.ColdStarts, st.WarmStarts, st.Invocations)
	}
	if int64(st.ColdStarts) != r.colds {
		return r, fmt.Errorf("Stats().ColdStarts %d != cold starts returned by Do %d", st.ColdStarts, r.colds)
	}
	var sum time.Duration
	for _, d := range b.startup {
		sum += d
	}
	if st.TotalStartupMS != sum.Milliseconds() {
		return r, fmt.Errorf("Stats().TotalStartupMS %d != summed Do startups %d ms", st.TotalStartupMS, sum.Milliseconds())
	}
	r.fastHits = st.FastHits
	r.evictions, r.expirations, r.rejections = st.Evictions, st.Expirations, st.Rejections
	r.reuse = st.WarmByLevel

	var lsum int64
	for _, v := range b.lat {
		lsum += v
	}
	r.meanDo = float64(lsum) / float64(n)
	slices.Sort(b.lat)
	r.p50, r.p95 = quantile(b.lat, 0.5), quantile(b.lat, 0.95)
	r.startMean = float64(sum) / float64(n) / 1e6
	slices.Sort(b.startup)
	r.startP99 = quantile(b.startup, 0.99) / 1e6
	return r, nil
}

// client is one closed-loop caller: claim the next record — the next of
// its own range, or the next of the whole trace from the shared cursor —
// call Do with the record's virtual arrival and execution time, time the
// call.
func (b *serveBench) client(c int, g *api.Gateway, next *atomic.Int64, tr *tracer, pass int64, origin time.Time, out *clientCount) {
	i, end := int64(0), int64(len(b.trace))
	if b.own != nil {
		i, end = int64(b.own[c]), int64(b.own[c+1])
	}
	for ; ; i++ {
		if b.own == nil {
			i = next.Add(1) - 1
		}
		if i >= end {
			return
		}
		inv := &b.trace[i]
		req := pass<<32 | i
		t0 := int64(time.Since(origin))
		if tr != nil {
			f := &tr.flight[c]
			f.fn.Store(int64(inv.Fn.ID))
			f.at.Store(int64(inv.Arrival))
			f.start.Store(t0)
			f.req.Store(req)
		}
		su, cold, err := g.Do(inv.Fn.ID, inv.Arrival, inv.Exec)
		t1 := int64(time.Since(origin))
		b.lat[i] = t1 - t0
		b.startup[i] = su
		if tr != nil {
			tr.flight[c].req.Store(-1)
			if tr.sampled(req) {
				tr.roots[c] = append(tr.roots[c], span{kind: kindDo, req: req, root: -1, start: t0, end: t1})
			}
		}
		switch {
		case err != nil:
			out.failed++
		case cold:
			out.colds++
			out.completed++
		default:
			out.completed++
		}
	}
}

// runServe runs a serve workload: set-up (repeated, median reported),
// one warm-up pass, then measured passes until seconds have elapsed.
// With trace, untraced and traced passes share the seconds.
func runServe(p serveParams, seed int64, seconds float64, trace bool, spansOut string) (*report, error) {
	rep := newReport()
	var times []setupTimes
	var b *serveBench
	var model []float64
	for i := 0; i < p.setups; i++ {
		nb, st, err := setupServe(p, seed)
		if err != nil {
			return nil, err
		}
		if p.mlcr {
			m := modelWeights(nb.cfg.NewScheduler().(*mlcr.Scheduler))
			if model != nil && !slices.Equal(m, model) {
				return nil, fmt.Errorf("set-up %d trained different weights from set-up 0", i)
			}
			model = m
		}
		b = nb
		times = append(times, st)
		runtime.GC() // start the next set-up on a clean heap, so peak RSS does not depend on GC timing
	}
	rep.setup(times)

	g, err := b.gateway(nil)
	if err != nil {
		return nil, err
	}
	if _, err := b.pass(g, nil, 0); err != nil { // warm-up
		return nil, err
	}
	if !trace {
		plain, _, err := b.passes(g, nil, nil, seconds)
		if err != nil {
			return nil, err
		}
		rep.count(plain)
		rep.endToEnd(plain)
		return rep, nil
	}
	tr := newTracer(p.sample, true, p.shards, b.maxFn)
	tg, err := b.gateway(tr)
	if err != nil {
		return nil, err
	}
	plain, traced, err := b.passes(g, tg, tr, seconds)
	if err != nil {
		return nil, err
	}
	rep.count(plain)
	rep.count(traced)
	rep.serveLayers(plain, traced, tr.totals())
	if b.qb != nil {
		rep.qbatch(b.qReq, b.qBatches, b.qb.MaxBatchSeen())
	}
	return rep, tr.write(spansOut)
}

// passes measures passes until seconds of them have run (at least three
// of each kind). With a traced gateway tg, untraced and traced passes
// alternate, so both see the same host conditions.
func (b *serveBench) passes(g, tg *api.Gateway, tr *tracer, seconds float64) (plain, traced []passResult, err error) {
	start := time.Now()
	for len(plain) < 3 || time.Since(start).Seconds() < seconds {
		r, err := b.pass(g, nil, int64(len(plain)))
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, r)
		if tg == nil {
			continue
		}
		var req, batches int64
		if b.qb != nil {
			req, batches = b.qb.Requests(), b.qb.Batches()
		}
		r, err = b.pass(tg, tr, int64(len(traced)))
		if err != nil {
			return nil, nil, err
		}
		if b.qb != nil {
			b.qReq += b.qb.Requests() - req
			b.qBatches += b.qb.Batches() - batches
		}
		traced = append(traced, r)
	}
	return plain, traced, nil
}
