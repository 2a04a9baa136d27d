package main

import (
	"slices"

	"mlcr/internal/obs/perf"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers a run's counts and metrics: end-to-end ones from
// untraced runs, per-layer ones from traced runs.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	setupS            float64
	setupMed          setupTimes
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// setup records the median of repeated set-ups, in total and by phase.
func (r *report) setup(times []setupTimes) {
	var tot, gen, train, build []float64
	for _, t := range times {
		tot = append(tot, t.total())
		gen = append(gen, t.gen)
		train = append(train, t.train)
		build = append(build, t.build)
	}
	r.setupS = median(tot)
	r.setupMed = setupTimes{gen: median(gen), train: median(train), build: median(build)}
}

// count adds serve passes to the attempted/failed tallies.
func (r *report) count(ps []passResult) {
	for _, p := range ps {
		r.attempted += p.completed + p.failed
		r.failed += p.failed
	}
}

// endToEnd reports a serve workload's user-visible metrics: the median
// over passes of each pass's figure.
func (r *report) endToEnd(ps []passResult) {
	per := func(f func(p passResult) float64) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return median(v)
	}
	r.set("throughput_rps", "1/s", per(func(p passResult) float64 { return float64(p.completed) / p.host }))
	r.set("latency_p50_us", "us", per(func(p passResult) float64 { return p.p50 / 1e3 }))
	r.set("latency_p95_us", "us", per(func(p passResult) float64 { return p.p95 / 1e3 }))
	r.set("startup_mean_ms", "ms", per(func(p passResult) float64 { return p.startMean }))
	r.set("startup_p99_ms", "ms", per(func(p passResult) float64 { return p.startP99 }))
	r.set("cold_share", "share", per(func(p passResult) float64 { return float64(p.colds) / float64(p.completed+p.failed) }))
	r.commonEndToEnd()
}

// simEndToEnd reports sim-replay's user-visible metrics. A replay has no
// per-request host latency, so its latency figures are the host time
// per invocation of a replay: median and 95th percentile over replays.
func (r *report) simEndToEnd(ps []simPass, b *simBench) {
	n := float64(len(b.w.Invocations))
	tput := make([]float64, len(ps))
	per := make([]float64, len(ps))
	for i, p := range ps {
		tput[i] = n / p.host
		per[i] = p.host / n * 1e6
	}
	slices.Sort(per)
	r.set("throughput_rps", "1/s", median(tput))
	r.set("latency_p50_us", "us", quantile(per, 0.5))
	r.set("latency_p95_us", "us", quantile(per, 0.95))
	t := b.first
	r.set("startup_mean_ms", "ms", float64(t.startup.Nanoseconds())/n/1e6)
	r.set("startup_p99_ms", "ms", b.p99ms)
	r.set("cold_share", "share", float64(t.colds)/n)
	r.commonEndToEnd()
}

func (r *report) commonEndToEnd() {
	r.set("setup_s", "s", r.setupS)
	r.set("peak_rss_mb", "MiB", float64(perf.PeakRSSBytes())/(1<<20))
}

// layerNames lists every per-layer metric with its unit; a workload that
// does not exercise a layer reports 0 for it.
var layerNames = []struct{ name, unit string }{
	{"api.fast_hit_share", "share"},
	{"api.slow_path_share", "share"},
	{"api.do_ns_mean", "ns"},
	{"api.self_ns_per_req", "ns"},
	{"api.build_s", "s"},
	{"policy.schedule_calls", "count"},
	{"policy.schedule_per_inv", "share"},
	{"policy.schedule_ns_mean", "ns"},
	{"policy.schedule_busy_share", "share"},
	{"policy.self_ns_per_req", "ns"},
	{"mlcr.nn_forward_calls", "count"},
	{"mlcr.nn_forward_ns_mean", "ns"},
	{"drl.qbatch_requests", "count"},
	{"drl.qbatch_batches", "count"},
	{"drl.qbatch_mean_size", "count"},
	{"drl.qbatch_max_size", "count"},
	{"drl.train_s", "s"},
	{"workload.trace_gen_s", "s"},
	{"evict.pick_victim_calls", "count"},
	{"evict.pick_victim_ns_mean", "ns"},
	{"evict.hook_calls", "count"},
	{"evict.self_ns_per_req", "ns"},
	{"pool.evictions_per_inv", "share"},
	{"pool.expirations_per_inv", "share"},
	{"pool.rejections_per_inv", "share"},
	{"pool.reuse_l1_share", "share"},
	{"pool.reuse_l2_share", "share"},
	{"pool.reuse_l3_share", "share"},
	{"container.cleaner_ops_per_inv", "count"},
	{"cluster.route_ns_per_inv", "ns"},
	{"platform.simulate_ns_per_inv", "ns"},
	{"cluster.load_imbalance", "ratio"},
	{"trace.overhead_share", "share"},
	{"trace.self_sum_ns_per_req", "ns"},
	{"trace.reconcile_gap_share", "share"},
	{"trace.outside_spans", "count"},
	{"trace.unattributed_calls", "count"},
}

// layerBase starts a per-layer report: every name at 0, plus the set-up
// phases.
func (r *report) layerBase() {
	for _, l := range layerNames {
		r.set(l.name, r.unitOf(l.name), 0)
	}
	r.set("drl.train_s", "s", r.setupMed.train)
	r.set("workload.trace_gen_s", "s", r.setupMed.gen)
	r.set("api.build_s", "s", r.setupMed.build)
}

func (r *report) unitOf(name string) string {
	for _, l := range layerNames {
		if l.name == name {
			return l.unit
		}
	}
	panic("mlcrbench: unknown per-layer metric " + name)
}

func (r *report) layer(name string, v float64) { r.set(name, r.unitOf(name), v) }

// evictAndPolicy reports the evictor and scheduler layers from the
// traced totals.
func (r *report) evictAndPolicy(lt layerTotals, invocations float64) {
	r.layer("policy.schedule_calls", float64(lt.calls[kindSchedule]))
	r.layer("policy.schedule_per_inv", float64(lt.calls[kindSchedule])/invocations)
	r.layer("policy.schedule_ns_mean", ratio(lt.ns[kindSchedule], lt.n[kindSchedule]))
	r.layer("mlcr.nn_forward_calls", float64(lt.nnCalls))
	r.layer("mlcr.nn_forward_ns_mean", ratio(lt.nnNS, lt.nnCalls))
	r.layer("evict.pick_victim_calls", float64(lt.calls[kindPickVictim]))
	r.layer("evict.pick_victim_ns_mean", ratio(lt.ns[kindPickVictim], lt.n[kindPickVictim]))
	r.layer("evict.hook_calls", float64(lt.calls[kindHook]))
	r.layer("trace.outside_spans", float64(lt.outside))
	r.layer("trace.unattributed_calls", float64(lt.lost))
}

// serveLayers derives a serve workload's per-layer metrics. Self times
// are per request: api.Do minus the scheduler and evictor calls inside
// it; the scheduler's self time excludes its Q-network forward passes
// (profiler totals).
func (r *report) serveLayers(plain, traced []passResult, lt layerTotals) {
	r.layerBase()
	var inv, fast float64
	var ev, exp, rej int
	var reuse [4]int
	for _, p := range traced {
		inv += float64(p.completed)
		fast += float64(p.fastHits)
		ev, exp, rej = ev+p.evictions, exp+p.expirations, rej+p.rejections
		for i := range reuse {
			reuse[i] += p.reuse[i]
		}
	}
	r.layer("api.fast_hit_share", fast/inv)
	r.layer("api.slow_path_share", 1-fast/inv)
	r.poolShares(ev, exp, rej, reuse, inv)
	r.evictAndPolicy(lt, inv)

	// Every call is counted and sampled calls are timed, so a layer's
	// time is its mean sampled span times its call count. api.Do's mean
	// covers every traced call (the clients time them all).
	pooled := func(ps []passResult) (doMean, tput float64) {
		var n, lat, host float64
		for _, p := range ps {
			n += float64(p.completed + p.failed)
			lat += p.meanDo * float64(p.completed+p.failed)
			host += p.host
		}
		return lat / n, n / host
	}
	doMean, tput := pooled(traced)
	plainDo, plainTput := pooled(plain)
	policyNS := (lt.totalNS(kindSchedule) + lt.totalNS(kindOnResult)) / inv
	nnNS := float64(lt.nnNS) / inv
	evictNS := (lt.totalNS(kindPickVictim) + lt.totalNS(kindHook)) / inv
	apiSelf := doMean - policyNS - evictNS
	r.layer("api.do_ns_mean", doMean)
	r.layer("api.self_ns_per_req", apiSelf)
	r.layer("policy.schedule_busy_share", policyNS/doMean)
	r.layer("policy.self_ns_per_req", policyNS-nnNS)
	r.layer("evict.self_ns_per_req", evictNS)
	selfSum := apiSelf + (policyNS - nnNS) + nnNS + evictNS
	r.layer("trace.self_sum_ns_per_req", selfSum)
	r.layer("trace.overhead_share", 1-tput/plainTput)
	// The share of the traced self-time sum that the untraced mean Do
	// does not account for; in a closed loop it matches overhead_share
	// when all tracing cost sits inside Do, and is smaller otherwise.
	r.layer("trace.reconcile_gap_share", 1-plainDo/selfSum)
}

// simLayers derives sim-replay's per-layer metrics. Span means are over
// sampled invocations; totals scale them by the counted calls.
func (r *report) simLayers(b *simBench, plain, traced []simPass, lt layerTotals, routeNS float64) {
	r.layerBase()
	n := float64(len(b.w.Invocations))
	t := b.first
	inv := n * float64(len(traced))
	r.poolShares(t.evictions, t.expirations, t.rejections, t.reuse, n)
	r.evictAndPolicy(lt, inv)
	r.layer("container.cleaner_ops_per_inv", float64(t.cleanerOps)/n)

	var plainNS []float64
	for _, p := range plain {
		plainNS = append(plainNS, p.host*1e9)
	}
	runNS := median(plainNS)
	r.layer("cluster.route_ns_per_inv", routeNS/n)
	r.layer("platform.simulate_ns_per_inv", (runNS-routeNS)/n)
	most, sum := 0, 0
	for _, k := range traced[0].routed {
		most, sum = max(most, k), sum+k
	}
	r.layer("cluster.load_imbalance", float64(most)/(float64(sum)/float64(len(traced[0].routed))))

	workersBusy := float64(lt.rootNS) * float64(min(b.p.parallelism, b.p.workers))
	schedNS := lt.totalNS(kindSchedule) + lt.totalNS(kindOnResult)
	r.layer("policy.schedule_busy_share", schedNS/workersBusy)
	r.layer("policy.self_ns_per_req", schedNS/inv)
	r.layer("evict.self_ns_per_req", (lt.totalNS(kindPickVictim)+lt.totalNS(kindHook))/inv)

	var tracedNS []float64
	for _, p := range traced {
		tracedNS = append(tracedNS, p.host*1e9)
	}
	r.layer("trace.overhead_share", 1-runNS/median(tracedNS))
}

// qbatch reports the shared QBatcher's traced-run counters.
func (r *report) qbatch(requests, batches, maxSize int64) {
	r.layer("drl.qbatch_requests", float64(requests))
	r.layer("drl.qbatch_batches", float64(batches))
	r.layer("drl.qbatch_mean_size", ratio(requests, batches))
	r.layer("drl.qbatch_max_size", float64(maxSize))
}

func (r *report) poolShares(ev, exp, rej int, reuse [4]int, inv float64) {
	r.layer("pool.evictions_per_inv", float64(ev)/inv)
	r.layer("pool.expirations_per_inv", float64(exp)/inv)
	r.layer("pool.rejections_per_inv", float64(rej)/inv)
	r.layer("pool.reuse_l1_share", float64(reuse[1])/inv)
	r.layer("pool.reuse_l2_share", float64(reuse[2])/inv)
	r.layer("pool.reuse_l3_share", float64(reuse[3])/inv)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of sorted values, interpolating
// linearly between the two nearest ranks.
func quantile[T ~int64 | ~float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// median of unsorted values (the input is left unchanged).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}
