GO ?= go

.PHONY: build test vet check check-full bench bench-hotpath bench-simcore bench-cluster bench-serve bench-all bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: the standard go vet plus mlcr-vet, the project's
# ten analyzers enforcing the determinism and hot-path contracts over
# the typed module call graph (DESIGN.md §9, §14). Machine-readable
# output via `go run ./cmd/mlcr-vet -json ./...` (or -sarif). Also
# part of make check via scripts/check.sh.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/mlcr-vet ./...

# Pre-merge gate: gofmt, vet, and race-enabled tests of every package
# (-short skips the long DQN training experiments; the parallel harness,
# cluster and observability race tests all run).
check:
	sh scripts/check.sh

# The same gate with the complete race suite, training runs included.
check-full:
	FULL=1 sh scripts/check.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Regenerate BENCH_hotpath.json (hot-path micro-benchmarks, DESIGN.md §8).
# Set BASELINE=/path/to/pre-optimization-checkout to re-measure "before".
bench-hotpath:
	sh scripts/bench_hotpath.sh

# Regenerate BENCH_simcore.json (million-invocation simulator-core
# throughput, DESIGN.md §10). Same BASELINE convention as bench-hotpath;
# INVOCATIONS overrides the trace size (default 1000000).
bench-simcore:
	sh scripts/bench_simcore.sh

# Regenerate BENCH_cluster.json: 1000-worker routing throughput per
# policy (ClusterRoute) and the full cluster replay (ClusterRun) over a
# 10M-invocation Azure-derived trace (DESIGN.md §13). INVOCATIONS
# overrides the trace size.
bench-cluster:
	sh scripts/bench_cluster.sh

# Regenerate BENCH_serve.json: million-request concurrent serving-path
# drive at 16 clients — the sharded lock-free gateway versus the
# coarse-lock server, with p50/p99/p999 latency and the gateway/coarse
# speedup ratio (DESIGN.md §15). REQUESTS / CLIENTS override the load.
bench-serve:
	sh scripts/bench_serve.sh

# Regenerate BENCH_all.json, the bench-regression baseline: every tier
# (simcore, hotpath, pool_evict, runner, cluster, serve) measured
# in-process by cmd/mlcr-perf with ns/op, allocs/op, invocations/sec
# and peak RSS per entry (DESIGN.md §11). TIERS / QUICK / INVOCATIONS
# narrow the run.
bench-all:
	sh scripts/bench_all.sh

# The regression gate: re-measure and fail on any entry past the
# thresholds vs the committed BENCH_all.json. The simcore, cluster and
# serve drives are shrunk to 200k invocations (full micro-benchmark
# scale elsewhere, so per-op numbers stay comparable to the baseline).
# A missing baseline skips the comparison (the gate must not fail
# fresh checkouts). Against a baseline from a different machine only
# allocs/op of the single-goroutine hotpath and pool_evict entries is
# gated; times and RSS are not comparable across hardware.
bench-check:
	$(GO) run ./cmd/mlcr-perf -check -baseline BENCH_all.json -n 200000 -cluster-n 200000 -serve-n 200000
