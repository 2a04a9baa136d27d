package perfbench

import (
	"path/filepath"
	"strings"
	"testing"
)

// sampleReport builds a small valid report for schema/compare tests.
func sampleReport() *Report {
	return &Report{
		Schema:      Schema,
		GeneratedBy: "test",
		GeneratedAt: "2026-08-08T00:00:00Z",
		Machine:     ThisMachine(),
		Entries: []Entry{
			{Name: "SimCore", Tier: TierSimCore, Iterations: 1000, NsPerOp: 1200, BytesPerOp: 130, AllocsPerOp: 0, InvPerSec: 830000, PeakRSSBytes: 200 << 20},
			{Name: "QNetworkForward", Tier: TierHotPath, Iterations: 1000, NsPerOp: 22000, BytesPerOp: 1, AllocsPerOp: 0},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := sampleReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"schema", func(r *Report) { r.Schema = "nope/v0" }, "schema"},
		{"empty", func(r *Report) { r.Entries = nil }, "no entries"},
		{"unnamed", func(r *Report) { r.Entries[0].Name = "" }, "no name"},
		{"untier", func(r *Report) { r.Entries[1].Tier = "" }, "no tier"},
		{"iters", func(r *Report) { r.Entries[0].Iterations = 0 }, "iterations"},
		{"nsop", func(r *Report) { r.Entries[0].NsPerOp = 0 }, "ns_op"},
		{"negative", func(r *Report) { r.Entries[0].AllocsPerOp = -1 }, "negative"},
		{"dup", func(r *Report) { r.Entries[1].Name = "SimCore" }, "duplicate"},
	}
	for _, tc := range bad {
		r := sampleReport()
		tc.mutate(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_all.json")
	r := sampleReport()
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entry("SimCore") == nil || got.Entry("SimCore").NsPerOp != 1200 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadFile accepted a missing file")
	}
}

// TestCompareFlagsSyntheticRegression is the gate's core guarantee:
// each threshold dimension trips on a synthetic regression just past
// its limit and stays silent just inside it.
func TestCompareFlagsSyntheticRegression(t *testing.T) {
	th := DefaultThresholds()
	base := sampleReport()

	cur := sampleReport()
	regs, skipped := Compare(base, cur, th)
	if skipped != "" || len(regs) != 0 {
		t.Fatalf("identical reports: regs=%v skipped=%q", regs, skipped)
	}

	cases := []struct {
		name   string
		mutate func(*Report)
		metric string
	}{
		{"ns_op", func(r *Report) { r.Entries[0].NsPerOp *= 1 + th.NsFrac + 0.05 }, "ns_op"},
		{"allocs", func(r *Report) { r.Entries[1].AllocsPerOp = th.AllocsAbs + 0.1 }, "allocs_op"},
		{"invps", func(r *Report) { r.Entries[0].InvPerSec *= 1 - th.InvDropFrac - 0.05 }, "invocations_per_sec"},
		{"rss", func(r *Report) { r.Entries[0].PeakRSSBytes *= 2 }, "peak_rss_bytes"},
		{"missing", func(r *Report) { r.Entries = r.Entries[:1] }, "missing"},
	}
	for _, tc := range cases {
		cur := sampleReport()
		tc.mutate(cur)
		regs, skipped := Compare(base, cur, th)
		if skipped != "" {
			t.Fatalf("%s: unexpectedly skipped: %s", tc.name, skipped)
		}
		if len(regs) != 1 || regs[0].Metric != tc.metric {
			t.Errorf("%s: regs = %v, want one %s regression", tc.name, regs, tc.metric)
		}
		if regs != nil && regs[0].String() == "" {
			t.Errorf("%s: empty regression description", tc.name)
		}
	}

	// Just inside every limit: no regression.
	cur = sampleReport()
	cur.Entries[0].NsPerOp *= 1 + th.NsFrac - 0.05
	cur.Entries[1].AllocsPerOp = th.AllocsAbs - 0.1
	cur.Entries[0].InvPerSec *= 1 - th.InvDropFrac + 0.05
	if regs, _ := Compare(base, cur, th); len(regs) != 0 {
		t.Errorf("within-threshold drift flagged: %v", regs)
	}

	// New entries in cur are additions, not regressions.
	cur = sampleReport()
	cur.Entries = append(cur.Entries, Entry{Name: "New", Tier: TierHotPath, Iterations: 1, NsPerOp: 1})
	if regs, _ := Compare(base, cur, th); len(regs) != 0 {
		t.Errorf("new entry flagged: %v", regs)
	}
}

// TestCompareFloorEntries: an entry with FloorInvPerSec is gated
// absolutely — ratio entries like ServeSpeedup compound the variance
// of two measurements, so the relative drift thresholds must not
// apply; only falling below the floor is a regression.
func TestCompareFloorEntries(t *testing.T) {
	mk := func(ratio float64) *Report {
		r := sampleReport()
		r.Entries = append(r.Entries, Entry{
			Name: "ServeSpeedup/16", Tier: TierServe, Iterations: 1,
			NsPerOp: 1 / ratio, InvPerSec: ratio, FloorInvPerSec: ServeSpeedupFloor,
		})
		return r
	}
	// A big ratio swing (10x -> 6x would trip both relative gates) is
	// fine as long as the floor holds.
	if regs, _ := Compare(mk(10), mk(6), DefaultThresholds()); len(regs) != 0 {
		t.Errorf("above-floor ratio swing flagged: %v", regs)
	}
	// Below the floor trips even if within relative drift of baseline.
	regs, _ := Compare(mk(5.2), mk(4.8), DefaultThresholds())
	if len(regs) != 1 || regs[0].Metric != "invocations_per_sec" || regs[0].Limit != ServeSpeedupFloor {
		t.Errorf("below-floor ratio: regs = %v, want one invocations_per_sec at limit %v", regs, float64(ServeSpeedupFloor))
	}
	// A baseline written before the floor field existed still gates:
	// the current entry's floor applies.
	old := mk(10)
	old.Entries[len(old.Entries)-1].FloorInvPerSec = 0
	if regs, _ := Compare(old, mk(4.8), DefaultThresholds()); len(regs) != 1 {
		t.Errorf("current-only floor not applied: %v", regs)
	}
	if regs, _ := Compare(mk(10), func() *Report { r := mk(6); r.Entries[len(r.Entries)-1].FloorInvPerSec = 0; return r }(), DefaultThresholds()); len(regs) != 0 {
		t.Errorf("baseline-only floor should still gate absolutely, got %v", regs)
	}
}

// TestCompareSkipsAcrossMachines: numbers from different machines are
// not comparable; the gate must skip rather than cry wolf.
func TestCompareSkipsAcrossMachines(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Entries[0].NsPerOp *= 10 // would be a huge regression if compared
	cur.Machine.NumCPU++
	regs, skipped := Compare(base, cur, DefaultThresholds())
	if skipped == "" || len(regs) != 0 {
		t.Fatalf("cross-machine compare: regs=%v skipped=%q, want skip and no regressions", regs, skipped)
	}
}

func TestPushHistory(t *testing.T) {
	cur := sampleReport()
	prev := sampleReport()
	prev.GeneratedAt = "2026-08-07T00:00:00Z"
	for i := 0; i < HistoryCap; i++ {
		prev.History = append(prev.History, HistoryPoint{GeneratedAt: "old"})
	}
	cur.PushHistory(prev)
	if len(cur.History) != HistoryCap {
		t.Fatalf("history length %d, want capped at %d", len(cur.History), HistoryCap)
	}
	if cur.History[0].GeneratedAt != prev.GeneratedAt || cur.History[0].NsPerOp["SimCore"] != 1200 {
		t.Errorf("newest history point = %+v, want prev's summary first", cur.History[0])
	}
	cur2 := sampleReport()
	cur2.PushHistory(nil)
	if len(cur2.History) != 0 {
		t.Errorf("PushHistory(nil) grew history: %v", cur2.History)
	}
}

// TestRunQuickTiers runs all three tiers at smoke scale: the report
// must validate, carry every expected entry, and record throughput and
// memory next to the timing numbers.
func TestRunQuickTiers(t *testing.T) {
	r, err := Run(nil, Options{Quick: true, SimCoreInvocations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SimCore", "QNetworkForward", "Featurize", "PoolAddTake", "RunnerSweep"} {
		if r.Entry(name) == nil {
			t.Errorf("report missing entry %q", name)
		}
	}
	sc := r.Entry("SimCore")
	if sc == nil || sc.InvPerSec <= 0 {
		t.Fatalf("SimCore entry lacks throughput: %+v", sc)
	}
	if sc.PeakRSSBytes == 0 {
		t.Errorf("SimCore entry lacks peak-RSS accounting (expected nonzero on Linux)")
	}
	if _, err := Run([]string{"nosuch"}, Options{}); err == nil {
		t.Fatal("Run accepted an unknown tier")
	}
}

// TestCompareGatesAllocsAcrossMachines: on a fingerprint mismatch the
// single-goroutine hotpath and pool_evict entries are still gated on
// allocs/op, which no machine difference explains, while times and the
// other tiers stay uncompared and the skip note says so.
func TestCompareGatesAllocsAcrossMachines(t *testing.T) {
	base := sampleReport()
	base.Entries = append(base.Entries, Entry{Name: "PoolEvict/lru/1024", Tier: TierPoolEvict, Iterations: 1000, NsPerOp: 90})
	cur := sampleReport()
	cur.Entries = append(cur.Entries, Entry{Name: "PoolEvict/lru/1024", Tier: TierPoolEvict, Iterations: 1000, NsPerOp: 900, AllocsPerOp: 1})
	cur.Machine.NumCPU++
	cur.Entries[0].AllocsPerOp += 5 // SimCore: not machine-independent
	cur.Entries[1].AllocsPerOp = 3  // QNetworkForward
	cur.Entries[1].NsPerOp *= 10
	regs, skipped := Compare(base, cur, DefaultThresholds())
	if !strings.Contains(skipped, "fingerprint changed") || !strings.Contains(skipped, "ns_op") {
		t.Errorf("skip note %q does not name the skipped comparisons", skipped)
	}
	got := map[string]string{}
	for _, r := range regs {
		got[r.Name] = r.Metric
	}
	want := map[string]string{"QNetworkForward": "allocs_op", "PoolEvict/lru/1024": "allocs_op"}
	for name, metric := range want {
		if len(got) != len(want) || got[name] != metric {
			t.Fatalf("cross-machine compare flagged %v, want %v", regs, want)
		}
	}

	cur.Entries = cur.Entries[:1] // hotpath and pool_evict entries vanished
	regs, _ = Compare(base, cur, DefaultThresholds())
	if len(regs) != 2 || regs[0].Metric != "missing" || regs[1].Metric != "missing" {
		t.Fatalf("cross-machine compare with vanished entries: %v, want two missing", regs)
	}
}
