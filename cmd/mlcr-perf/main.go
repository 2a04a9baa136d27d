// Command mlcr-perf is the bench-regression gate (DESIGN.md §11): it
// runs the repository's benchmark tiers in-process via
// internal/perfbench, writes the schema'd BENCH_all.json report, and
// compares fresh numbers against a committed baseline.
//
// Usage:
//
//	mlcr-perf [-tiers simcore,hotpath,runner] [-quick] [-n N]
//	          [-baseline BENCH_all.json] [-check] [-out path]
//	mlcr-perf -validate BENCH_all.json
//
// Modes:
//
//   - default: measure the tiers and print the entries. With -out the
//     report is written (carrying forward the baseline's history when
//     -baseline names a readable report from this machine).
//   - -check: additionally compare against -baseline and exit 1 on any
//     threshold regression. A missing baseline or a baseline from a
//     different machine is a note, not a failure — fresh checkouts and
//     foreign hardware must not fail the gate.
//   - -validate: schema-check an existing report and exit; non-zero on
//     a malformed file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlcr/internal/perfbench"
)

func main() {
	var (
		tiersFlag = flag.String("tiers", "", "comma-separated tiers to run (default: all: "+strings.Join(perfbench.Tiers(), ",")+")")
		quick     = flag.Bool("quick", false, "smoke-test scale (seconds, noisier numbers)")
		n         = flag.Int("n", 0, "override simcore trace size (invocations)")
		clusterN  = flag.Int("cluster-n", 0, "override cluster-tier trace size (invocations)")
		serveN    = flag.Int("serve-n", 0, "override serve-tier request count per engine")
		baseline  = flag.String("baseline", "", "baseline report to compare against / inherit history from")
		check     = flag.Bool("check", false, "exit 1 when the run regresses past thresholds vs -baseline")
		out       = flag.String("out", "", "write the measured report here")
		validate  = flag.String("validate", "", "validate an existing report and exit")
	)
	flag.Parse()

	if *validate != "" {
		if _, err := perfbench.ReadFile(*validate); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid %s report\n", *validate, perfbench.Schema)
		return
	}

	var tiers []string
	if *tiersFlag != "" {
		tiers = strings.Split(*tiersFlag, ",")
	}
	rep, err := perfbench.Run(tiers, perfbench.Options{Quick: *quick, SimCoreInvocations: *n, ClusterInvocations: *clusterN, ServeRequests: *serveN})
	if err != nil {
		fatal(err)
	}
	for _, e := range rep.Entries {
		line := fmt.Sprintf("%-8s %-18s %12.1f ns/op %8.2f allocs/op", e.Tier, e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.InvPerSec > 0 {
			line += fmt.Sprintf(" %12.0f inv/s", e.InvPerSec)
		}
		if e.PeakRSSBytes > 0 {
			line += fmt.Sprintf(" %6.0f MiB peak RSS", float64(e.PeakRSSBytes)/(1<<20))
		}
		fmt.Println(line)
	}

	var base *perfbench.Report
	if *baseline != "" {
		base, err = perfbench.ReadFile(*baseline)
		if err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}

	failed := false
	if *check {
		switch {
		case *baseline == "":
			fatal(fmt.Errorf("-check needs -baseline"))
		case base == nil:
			fmt.Printf("bench-check: no baseline at %s; nothing to compare (run `make bench-all` to create one)\n", *baseline)
		default:
			regs, skipped := perfbench.Compare(base, rep, perfbench.DefaultThresholds())
			if skipped != "" {
				fmt.Printf("bench-check: partial comparison: %s\n", skipped)
			}
			switch {
			case len(regs) > 0:
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "bench-check: REGRESSION %s\n", r)
				}
				failed = true
			case skipped != "":
				fmt.Printf("bench-check: no regression among the compared entries of %s\n", *baseline)
			default:
				fmt.Printf("bench-check: %d entries within thresholds of %s\n", len(rep.Entries), *baseline)
			}
		}
	}

	if *out != "" {
		// History carries across regenerations of the same baseline on
		// the same machine; foreign-machine numbers would pollute it.
		if base != nil && base.Machine == rep.Machine {
			rep.PushHistory(base)
		}
		if err := rep.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlcr-perf:", err)
	os.Exit(1)
}
