package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"mlcr/internal/evict"
	"mlcr/internal/mlcr"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// Tiny versions of the three workloads: same code paths, inputs small
// enough for the race detector.
func tinyServeWarm() serveParams {
	p := serveWarm
	p.records, p.setups = 20_000, 1
	return p
}

func tinyServeMLCR() serveParams {
	p := serveMLCR
	p.records, p.episodes, p.setups = 2_000, 1, 1
	return p
}

func tinySimReplay() simParams {
	p := simReplay
	p.invocations, p.setups = 20_000, 1
	return p
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runTiny runs one workload untraced and traced and checks that each
// run passes its checks and reports exactly the declared metrics.
func runTiny(t *testing.T, run func(trace bool, spans string) (*report, error)) (plain, traced map[string]metric) {
	t.Helper()
	e2e, layers := benchmarkNames(t)
	rep, err := run(false, "")
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("untraced run: attempted %d, failed %d", rep.attempted, rep.failed)
	}
	if got := names(rep.metrics); !slices.Equal(got, e2e) {
		t.Fatalf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, e2e)
	}
	for name, m := range rep.metrics {
		if !(m.Value > 0) {
			t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
		}
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	trep, err := run(true, spans)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if got := names(trep.metrics); !slices.Equal(got, layers) {
		t.Fatalf("traced metrics %v, BENCHMARK.json per_layer %v", got, layers)
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Fatalf("span file: %v", err)
	}
	return rep.metrics, trep.metrics
}

func TestServeWarmSmoke(t *testing.T) {
	_, layers := runTiny(t, func(trace bool, spans string) (*report, error) {
		return runServe(tinyServeWarm(), 1, 0.2, trace, spans)
	})
	if v := layers["api.fast_hit_share"].Value; v < 0.95 {
		t.Errorf("serve-warm fast-hit share %v, want >= 0.95", v)
	}
	if v := layers["mlcr.nn_forward_calls"].Value; v != 0 {
		t.Errorf("serve-warm ran %v Q-network forward passes, want 0", v)
	}
}

func TestServeMLCRSmoke(t *testing.T) {
	_, layers := runTiny(t, func(trace bool, spans string) (*report, error) {
		return runServe(tinyServeMLCR(), 1, 0.2, trace, spans)
	})
	if v := layers["api.fast_hit_share"].Value; v > 0.5 {
		t.Errorf("serve-mlcr fast-hit share %v, want <= 0.5", v)
	}
	if v := layers["policy.schedule_per_inv"].Value; v < 0.5 {
		t.Errorf("serve-mlcr scheduler calls per invocation %v, want >= 0.5", v)
	}
	if layers["mlcr.nn_forward_calls"].Value == 0 || layers["drl.qbatch_requests"].Value == 0 {
		t.Errorf("serve-mlcr made no batched Q-network forward passes")
	}
}

func TestSimReplaySmoke(t *testing.T) {
	_, layers := runTiny(t, func(trace bool, spans string) (*report, error) {
		return runSim(tinySimReplay(), 1, 0.2, trace, spans)
	})
	if v := layers["mlcr.nn_forward_calls"].Value; v != 0 {
		t.Errorf("sim-replay ran %v Q-network forward passes, want 0", v)
	}
	if v := layers["pool.evictions_per_inv"].Value; v < 0.1 {
		t.Errorf("sim-replay evictions per invocation %v, want >= 0.1", v)
	}
}

// TestSimReplayRepeats checks that one seed always decides the same.
func TestSimReplayRepeats(t *testing.T) {
	a, err := runSim(tinySimReplay(), 3, 0.05, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(tinySimReplay(), 3, 0.05, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cold_share", "startup_mean_ms", "startup_p99_ms"} {
		if a.metrics[name] != b.metrics[name] {
			t.Errorf("%s: %v then %v", name, a.metrics[name], b.metrics[name])
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks that the traced wrappers
// expose exactly the optional interfaces the program type-asserts.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(1, false, 0, 0)
	type profiled interface{ SetProfiler(*perf.Profiler) }

	gm, _ := policy.NewByName("Greedy-Match", 0)
	w := tr.wrapSched(gm, 0)
	ev, ok := w.(interface{ Evictor() pool.Evictor })
	if !ok || ev.Evictor() == nil {
		t.Fatal("wrapped Greedy-Match lost its Evictor pairing")
	}
	if ev.Evictor().Name() != gm.Evictor().Name() {
		t.Errorf("wrapped evictor %q, want %q", ev.Evictor().Name(), gm.Evictor().Name())
	}

	m := mlcr.New(mlcr.Config{Seed: 1})
	if _, ok := tr.wrapSched(m, 0).(profiled); !ok {
		t.Error("wrapped MLCR scheduler lost SetProfiler")
	}
	if tr.units[len(tr.units)-1].prof == nil {
		t.Error("wrapping MLCR attached no profiler")
	}

	var bare platform.Scheduler = bareSched{}
	if e := tr.wrapSched(bare, 0).(interface{ Evictor() pool.Evictor }).Evictor(); e != nil {
		t.Errorf("scheduler without an Evictor pairing wrapped to %v, want nil", e)
	}

	u := tr.newUnit(0)
	if _, ok := u.wrapEvictor(evict.MustNew("lru", 0)).(evict.PerContainerTTL); ok {
		t.Error("wrapped LRU gained PerContainerTTL")
	}
	if _, ok := u.wrapEvictor(evict.MustNew("adaptive-keepalive", 0)).(evict.PerContainerTTL); !ok {
		t.Error("wrapped adaptive-keepalive lost PerContainerTTL")
	}
}

type bareSched struct{}

func (bareSched) Name() string { return "bare" }

func (bareSched) Schedule(platform.Env, *workload.Invocation) int { return platform.ColdStart }

func (bareSched) OnResult(platform.Env, *workload.Invocation, platform.Result) {}
