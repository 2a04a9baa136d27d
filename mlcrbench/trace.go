package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/evict"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// The traced run records spans from the benchmark's own code, around the
// calls into each layer: the request (Gateway.Do, or a whole cluster.Run
// replay) is the root span, and the scheduler and evictor products the
// program builds through its factories are wrapped so that every call
// into them is counted and, for sampled requests, recorded as a child
// span. Spans stay in memory and are written out when the run ends.

// kind names a layer boundary.
type kind uint8

const (
	kindDo         kind = iota // api.Do: one Gateway.Do call (serve root)
	kindRun                    // cluster.Run: one replay pass (sim root)
	kindSchedule               // policy.Schedule
	kindOnResult               // policy.OnResult
	kindPickVictim             // evict.PickVictim
	kindHook                   // evict.hook: any other evictor call
	numKinds
)

var kindNames = [numKinds]string{"api.Do", "cluster.Run", "policy.Schedule", "policy.OnResult", "evict.PickVictim", "evict.hook"}

// span is one recorded interval: req is the request it serves, root the
// request key of the root span that caused it (-1 on a root span).
type span struct {
	kind       kind
	req, root  int64
	start, end int64 // ns since the tracer's origin
}

// maxClients bounds the serve workloads' client goroutines.
const maxClients = 2

// simRootBit marks the request key of a sim pass's root span; per-call
// keys use bits below it (worker<<32 | seq with worker < 128).
const simRootBit = 1 << 39

// inflight is one serve client's current request, published before each
// Gateway.Do so wrapped layers can tell which request called them.
type inflight struct {
	req   atomic.Int64 // -1 when idle
	fn    atomic.Int64
	at    atomic.Int64
	start atomic.Int64
	_     [32]byte // keep the two clients' slots off one cache line
}

// tracer holds one traced run's spans and counters.
type tracer struct {
	origin time.Time
	sample int64 // spans are kept for requests whose index is a multiple
	serve  bool
	shards int // serve: units per gateway generation

	mu    sync.Mutex // guards units (factories may run on worker goroutines)
	units []*unit

	roots  [maxClients][]span // serve: per-client api.Do spans
	runs   []span             // sim: per-pass cluster.Run spans
	flight [maxClients]inflight
	fnUnit []atomic.Int32 // serve: learnt function ID → shard+1
	pass   int64          // sim: current pass (set between passes)
}

func newTracer(sample int64, serve bool, shards, maxFnID int) *tracer {
	t := &tracer{origin: time.Now(), sample: sample, serve: serve, shards: shards}
	t.fnUnit = make([]atomic.Int32, maxFnID+1)
	for i := range t.flight {
		t.flight[i].req.Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) clock() time.Duration { return time.Since(t.origin) }

// sampled reports whether request key req keeps its spans.
func (t *tracer) sampled(req int64) bool {
	return req >= 0 && (req&(1<<32-1))%t.sample == 0
}

// unit is one gateway shard or cluster worker: its scheduler and evictor
// wrappers count and record into it, from one goroutine at a time (the
// shard lock holder, or the worker's goroutine).
type unit struct {
	tr     *tracer
	shard  int   // serve: shard index within its generation
	worker int64 // sim: worker index
	cur    int64 // sim: request key of the invocation scheduled last
	spans  []span
	calls  [numKinds]int64
	lost   int64 // serve: calls no in-flight request could be matched to
	prof   *perf.Profiler
}

func (t *tracer) newUnit(worker int) *unit {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := &unit{tr: t, worker: int64(worker), cur: -1}
	if t.serve {
		u.shard = len(t.units) % t.shards
	}
	t.units = append(t.units, u)
	return u
}

// schedReq attributes a scheduler call to its request. On the gateway
// the caller is the in-flight request for the invocation's function
// (ties between both clients broken by arrival time, then start); in the
// simulator it is the invocation itself.
func (u *unit) schedReq(inv *workload.Invocation) int64 {
	t := u.tr
	if !t.serve {
		u.cur = t.pass<<40 | u.worker<<32 | int64(inv.Seq)
		return u.cur
	}
	fn := int64(inv.Fn.ID)
	t.fnUnit[fn].Store(int32(u.shard + 1))
	best, bestStart, exact := int64(-1), int64(0), false
	for i := range t.flight {
		f := &t.flight[i]
		r := f.req.Load()
		if r < 0 || f.fn.Load() != fn {
			continue
		}
		e := f.at.Load() == int64(inv.Arrival)
		s := f.start.Load()
		if best < 0 || (e && !exact) || (e == exact && s < bestStart) {
			best, bestStart, exact = r, s, e
		}
	}
	if best < 0 {
		u.lost++
	}
	return best
}

// hookReq attributes an evictor call. In the simulator it is the
// invocation scheduled last on the worker; on the gateway it is the
// in-flight request whose function lives on this shard (the earlier
// started one when both clients are on it — the later one is waiting
// for the shard lock or on the lock-free path).
func (u *unit) hookReq() int64 {
	t := u.tr
	if !t.serve {
		return u.cur
	}
	best, bestStart := int64(-1), int64(0)
	for i := range t.flight {
		f := &t.flight[i]
		r := f.req.Load()
		if r < 0 || int(t.fnUnit[f.fn.Load()].Load()) != u.shard+1 {
			continue
		}
		if s := f.start.Load(); best < 0 || s < bestStart {
			best, bestStart = r, s
		}
	}
	if best < 0 {
		u.lost++
	}
	return best
}

// begin returns the span start for a sampled request, 0 otherwise (no
// clock read on the unsampled path).
func (u *unit) begin(req int64) int64 {
	if u.tr.sampled(req) {
		return u.tr.now()
	}
	return 0
}

// end counts one call and records its span when the request is sampled.
func (u *unit) end(k kind, req, start int64) {
	u.calls[k]++
	if !u.tr.sampled(req) {
		return
	}
	root := req
	if !u.tr.serve {
		root = u.tr.pass<<40 | simRootBit
	}
	u.spans = append(u.spans, span{kind: k, req: req, root: root, start: start, end: u.tr.now()})
}

// wrapSched wraps one scheduler product. When the product can time its
// Q-network forward pass (the public SetProfiler hook), the wrapper
// attaches a unit-private profiler to it.
func (t *tracer) wrapSched(inner platform.Scheduler, worker int) platform.Scheduler {
	u := t.newUnit(worker)
	if pa, ok := inner.(interface{ SetProfiler(*perf.Profiler) }); ok {
		u.prof = perf.New(t.clock)
		pa.SetProfiler(u.prof)
	}
	return &tracedSched{inner: inner, u: u}
}

// tracedSched forwards every optional interface the program type-asserts
// on a scheduler — Evictor() and SetProfiler — so a traced run makes the
// same decisions as an untraced one. Evictor() on a product without one
// returns nil, which every caller treats like the missing method.
type tracedSched struct {
	inner platform.Scheduler
	u     *unit
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Schedule(env platform.Env, inv *workload.Invocation) int {
	req := s.u.schedReq(inv)
	t0 := s.u.begin(req)
	c := s.inner.Schedule(env, inv)
	s.u.end(kindSchedule, req, t0)
	return c
}

func (s *tracedSched) OnResult(env platform.Env, inv *workload.Invocation, res platform.Result) {
	req := s.u.schedReq(inv)
	t0 := s.u.begin(req)
	s.inner.OnResult(env, inv, res)
	s.u.end(kindOnResult, req, t0)
}

func (s *tracedSched) Evictor() pool.Evictor {
	p, ok := s.inner.(interface{ Evictor() pool.Evictor })
	if !ok {
		return nil
	}
	return s.u.wrapEvictor(p.Evictor())
}

func (s *tracedSched) SetProfiler(p *perf.Profiler) {
	if pa, ok := s.inner.(interface{ SetProfiler(*perf.Profiler) }); ok {
		pa.SetProfiler(p)
	}
}

// wrapEvictor wraps an evictor product, keeping evict.PerContainerTTL
// exactly when the product implements it: the pool switches its expiry
// rule on that assertion.
func (u *unit) wrapEvictor(inner pool.Evictor) pool.Evictor {
	if inner == nil {
		return nil
	}
	e := &tracedEvictor{inner: inner, u: u}
	if ttl, ok := inner.(evict.PerContainerTTL); ok {
		return &tracedEvictorTTL{tracedEvictor: e, ttl: ttl}
	}
	return e
}

type tracedEvictor struct {
	inner pool.Evictor
	u     *unit
}

func (e *tracedEvictor) Name() string { return e.inner.Name() }

func (e *tracedEvictor) Admit() bool {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	ok := e.inner.Admit()
	e.u.end(kindHook, req, t0)
	return ok
}

func (e *tracedEvictor) TTL() time.Duration {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	d := e.inner.TTL()
	e.u.end(kindHook, req, t0)
	return d
}

func (e *tracedEvictor) OnAdd(c *container.Container, startupCost, now time.Duration) {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	e.inner.OnAdd(c, startupCost, now)
	e.u.end(kindHook, req, t0)
}

func (e *tracedEvictor) OnUse(c *container.Container, now time.Duration) {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	e.inner.OnUse(c, now)
	e.u.end(kindHook, req, t0)
}

func (e *tracedEvictor) OnRemove(c *container.Container, reason string) {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	e.inner.OnRemove(c, reason)
	e.u.end(kindHook, req, t0)
}

func (e *tracedEvictor) OnTick(now time.Duration) {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	e.inner.OnTick(now)
	e.u.end(kindHook, req, t0)
}

func (e *tracedEvictor) PickVictim(now time.Duration) *container.Container {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	c := e.inner.PickVictim(now)
	e.u.end(kindPickVictim, req, t0)
	return c
}

type tracedEvictorTTL struct {
	*tracedEvictor
	ttl evict.PerContainerTTL
}

func (e *tracedEvictorTTL) TTLFor(c *container.Container) time.Duration {
	req := e.u.hookReq()
	t0 := e.u.begin(req)
	d := e.ttl.TTLFor(c)
	e.u.end(kindHook, req, t0)
	return d
}

// layerTotals is what the recorded spans and counters add up to.
type layerTotals struct {
	rootNS        int64           // summed duration of the recorded root spans
	n, ns         [numKinds]int64 // recorded child spans by kind, counted under a recorded root
	calls         [numKinds]int64 // every call, sampled or not
	outside, lost int64           // child spans not inside their root; unattributable calls
	nnCalls, nnNS int64           // Q-network forward passes (profiler)
}

// totalNS estimates the time spent in every call of kind k: the mean
// recorded span times the number of calls.
func (lt layerTotals) totalNS(k kind) float64 { return ratio(lt.ns[k], lt.n[k]) * float64(lt.calls[k]) }

// totals derives the layer totals from the recorded spans. A child span
// whose root was not recorded or which is not contained in its root's
// interval counts as outside; the sum of child time then excludes it.
func (t *tracer) totals() layerTotals {
	var lt layerTotals
	rootSpan := make(map[int64]span)
	addRoot := func(s span) {
		rootSpan[s.req] = s
		lt.rootNS += s.end - s.start
	}
	for _, buf := range t.roots {
		for _, s := range buf {
			addRoot(s)
		}
	}
	for _, s := range t.runs {
		addRoot(s)
	}
	for _, u := range t.units {
		for k := range u.calls {
			lt.calls[k] += u.calls[k]
		}
		lt.lost += u.lost
		if u.prof != nil {
			if h := u.prof.Phase(perf.PhaseNNForward); h != nil {
				lt.nnCalls += h.Count()
				lt.nnNS += h.Sum()
			}
		}
		for _, s := range u.spans {
			r, ok := rootSpan[s.root]
			if !ok || s.start < r.start || s.end > r.end {
				lt.outside++
				continue
			}
			lt.n[s.kind]++
			lt.ns[s.kind] += s.end - s.start
		}
	}
	return lt
}

// write stores every span as one JSON line: id, parent id (-1 for a
// root), request key, layer name and start/end in ns since the run began.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Req    int64  `json:"req"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	ids := make(map[int64]int64)
	var next int64
	emit := func(s span, parent int64) error {
		err := enc.Encode(rec{ID: next, Parent: parent, Req: s.req, Name: kindNames[s.kind], Start: s.start, End: s.end})
		next++
		return err
	}
	var werr error
	for _, buf := range append(t.roots[:], t.runs) {
		for _, s := range buf {
			ids[s.req] = next
			if werr == nil {
				werr = emit(s, -1)
			}
		}
	}
	for _, u := range t.units {
		for _, s := range u.spans {
			parent, ok := ids[s.root]
			if !ok {
				parent = -1
			}
			if werr == nil {
				werr = emit(s, parent)
			}
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write spans %s: %w", path, werr)
	}
	return nil
}
