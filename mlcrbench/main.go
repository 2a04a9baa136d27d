// Command mlcrbench is the repository benchmark. It drives the program
// from outside through its public entry points — the concurrent gateway
// (api.NewGateway, Gateway.Do, Gateway.Stats), the MLCR scheduler with
// batched inference (experiments.TrainMLCR, mlcr.Clone, SetBatcher,
// drl.NewQBatcher) and the cluster simulator (cluster.Run, cluster.Route)
// — on inputs it generates from a seed, checks the program's outputs,
// and prints one JSON result line. See README.md for the workloads and
// metrics.
//
//	mlcrbench --workload serve-mlcr --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Workload sizes. The serve workloads run two closed-loop clients and
// the simulator two-way Parallelism: load comes from one process on a
// two-CPU host.
var (
	serveWarm = serveParams{
		copies: 8, jitter: 0.02, records: 500_000, poolMB: 0, shards: 1024,
		clients: 2, sample: 64, setups: 9,
	}
	serveMLCR = serveParams{
		copies: 8, jitter: 0.02, records: 80_000, poolMB: 16 << 10, shards: 4,
		clients: 2, mlcr: true, episodes: 4, zipfS: 1.1, rate: 20, sample: 4, setups: 3,
	}
	simReplay = simParams{
		copies: 16, jitter: 0.02, invocations: 400_000, zipfS: 1.1, rate: 200,
		workers: 16, poolMB: 64 << 10, router: "p2c", parallelism: 2, sample: 256, setups: 5,
	}
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "serve-warm, serve-mlcr or sim-replay")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans-out", "", "traced run: span file (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *workload, *seed)
	}
	rep, err := run(*workload, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcrbench: %v\n", err)
		out := result{Correct: false, Metrics: map[string]metric{}}
		if rep != nil {
			out.Attempted, out.Failed = rep.attempted, rep.failed
		}
		emit(out)
		os.Exit(1)
	}
	emit(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
}

func run(workload string, seed int64, seconds float64, trace bool, spans string) (*report, error) {
	switch workload {
	case "serve-warm":
		return runServe(serveWarm, seed, seconds, trace, spans)
	case "serve-mlcr":
		return runServe(serveMLCR, seed, seconds, trace, spans)
	case "sim-replay":
		return runSim(simReplay, seed, seconds, trace, spans)
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-warm, serve-mlcr or sim-replay)", workload)
	}
}

func emit(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcrbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
