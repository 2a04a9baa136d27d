package perfbench

import "fmt"

// Thresholds bound how much worse the current tree may measure before
// Compare flags a regression. Fractions are relative to the baseline;
// AllocsAbs is absolute because the optimized hot paths sit at 0
// allocs/op, where any fraction of zero is useless.
type Thresholds struct {
	// NsFrac is the tolerated fractional ns/op increase (0.35 = +35%).
	NsFrac float64
	// AllocsAbs is the tolerated absolute allocs/op increase.
	AllocsAbs float64
	// InvDropFrac is the tolerated fractional invocations/sec drop.
	InvDropFrac float64
	// RSSFrac is the tolerated fractional peak-RSS increase.
	RSSFrac float64
}

// DefaultThresholds is the bench-check gate configuration: generous
// enough to absorb scheduler noise and thermal variance on one
// machine, tight enough that a real hot-path regression (an
// accidental allocation, a quadratic scan) trips it.
func DefaultThresholds() Thresholds {
	return Thresholds{NsFrac: 0.35, AllocsAbs: 0.5, InvDropFrac: 0.30, RSSFrac: 0.50}
}

// Regression is one threshold violation found by Compare.
type Regression struct {
	// Name is the entry, Metric the violated dimension (ns_op,
	// allocs_op, invocations_per_sec, peak_rss_bytes, or missing).
	Name   string
	Metric string
	// Base and Current are the measured values; Limit is the worst
	// value the thresholds tolerated.
	Base    float64
	Current float64
	Limit   float64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline, missing from current run", r.Name)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (limit %.4g)", r.Name, r.Metric, r.Base, r.Current, r.Limit)
}

// allocsMachineIndependent reports whether an entry's allocs/op can be
// compared across machines: the hotpath and pool_evict tiers time one
// goroutine over fixed inputs, so their allocation counts depend on
// neither CPU count nor speed. The other tiers run worker pools or
// concurrent clients whose allocations follow the scheduling.
func allocsMachineIndependent(e Entry) bool {
	return e.Tier == TierHotPath || e.Tier == TierPoolEvict
}

// Compare checks cur against base under the thresholds. Entries
// present only in cur are new benchmarks, not regressions; entries
// that vanished are flagged. When the two reports were measured on
// different machines, times, throughputs and RSS are not comparable:
// Compare then gates only allocs/op (and presence) of the
// machine-independent entries and returns a non-empty skipped note
// naming what it did not compare.
func Compare(base, cur *Report, th Thresholds) (regs []Regression, skipped string) {
	sameMachine := base.Machine == cur.Machine
	if !sameMachine {
		var gated, unchecked int
		for _, b := range base.Entries {
			if allocsMachineIndependent(b) {
				gated++
			} else {
				unchecked++
			}
		}
		skipped = fmt.Sprintf("machine fingerprint changed (%+v -> %+v): ns_op, invocations_per_sec and peak_rss_bytes not compared; "+
			"allocs_op gated on %d %s/%s entries; %d other entries not compared",
			base.Machine, cur.Machine, gated, TierHotPath, TierPoolEvict, unchecked)
	}
	for _, b := range base.Entries {
		if !sameMachine && !allocsMachineIndependent(b) {
			continue
		}
		c := cur.Entry(b.Name)
		if c == nil {
			regs = append(regs, Regression{Name: b.Name, Metric: "missing"})
			continue
		}
		allocLimit := b.AllocsPerOp + th.AllocsAbs
		if !sameMachine {
			if c.AllocsPerOp > allocLimit {
				regs = append(regs, Regression{Name: b.Name, Metric: "allocs_op", Base: b.AllocsPerOp, Current: c.AllocsPerOp, Limit: allocLimit})
			}
			continue
		}
		if floor := c.FloorInvPerSec; floor > 0 || b.FloorInvPerSec > 0 {
			// Floored entry (a ratio like ServeSpeedup): relative drift
			// on a quotient of two noisy measurements compounds their
			// variance and flakes, so gate the absolute acceptance bar
			// instead. The current entry's floor wins so a tightened
			// bar applies without regenerating the baseline.
			if floor == 0 {
				floor = b.FloorInvPerSec
			}
			if c.InvPerSec < floor {
				regs = append(regs, Regression{Name: b.Name, Metric: "invocations_per_sec", Base: b.InvPerSec, Current: c.InvPerSec, Limit: floor})
			}
			continue
		}
		if limit := b.NsPerOp * (1 + th.NsFrac); c.NsPerOp > limit {
			regs = append(regs, Regression{Name: b.Name, Metric: "ns_op", Base: b.NsPerOp, Current: c.NsPerOp, Limit: limit})
		}
		if c.AllocsPerOp > allocLimit {
			regs = append(regs, Regression{Name: b.Name, Metric: "allocs_op", Base: b.AllocsPerOp, Current: c.AllocsPerOp, Limit: allocLimit})
		}
		if b.InvPerSec > 0 && c.InvPerSec > 0 {
			if limit := b.InvPerSec * (1 - th.InvDropFrac); c.InvPerSec < limit {
				regs = append(regs, Regression{Name: b.Name, Metric: "invocations_per_sec", Base: b.InvPerSec, Current: c.InvPerSec, Limit: limit})
			}
		}
		if b.PeakRSSBytes > 0 && c.PeakRSSBytes > 0 {
			if limit := float64(b.PeakRSSBytes) * (1 + th.RSSFrac); float64(c.PeakRSSBytes) > limit {
				regs = append(regs, Regression{Name: b.Name, Metric: "peak_rss_bytes", Base: float64(b.PeakRSSBytes), Current: float64(c.PeakRSSBytes), Limit: limit})
			}
		}
	}
	return regs, skipped
}
