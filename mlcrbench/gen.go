package main

import (
	"fmt"
	"math/rand"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/fstartbench"
	"mlcr/internal/workload"
)

// catalog returns the FStartBench functions cloned copies times. Clone k
// of function id gets ID k*13+id and the original's image value, so
// clones share every package level and can reuse each other's
// containers. Each clone's FunctionInit and Exec are scaled by a seeded
// factor in [1-jitter, 1+jitter]: startup metrics then move smoothly
// with the seed instead of snapping between the 13 catalog values.
func catalog(copies int, jitter float64, rng *rand.Rand) []*workload.Function {
	base := fstartbench.Functions()
	out := make([]*workload.Function, 0, copies*len(base))
	for k := 0; k < copies; k++ {
		for _, f := range base {
			c := *f
			c.ID = k*len(base) + f.ID
			c.Name = fmt.Sprintf("%s-c%d", f.Name, k)
			c.FunctionInit = scale(f.FunctionInit, jitter, rng)
			c.Exec = scale(f.Exec, jitter, rng)
			out = append(out, &c)
		}
	}
	return out
}

// scale multiplies d by a uniform factor in [1-jitter, 1+jitter].
func scale(d time.Duration, jitter float64, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
}

// zipfTrace draws n invocations of a catalog built by catalog(). Function
// popularity is Zipf(s) over the catalog in order: rank r is clone r/13
// of base function r%13, so every seed makes the same functions hot —
// and hence puts them on the same gateway shards — and the seed moves
// only the clones' timings, the draws and when calls arrive. Arrivals
// form a Poisson process of rate invocations per virtual second, so the
// virtual-time arrival process is open-loop; each execution time is its
// function's mean scaled by ±10%.
func zipfTrace(fns []*workload.Function, n int, s, rate float64, rng *rand.Rand) []workload.Invocation {
	zipf := rand.NewZipf(rng, s, 1, uint64(len(fns)-1))
	out := make([]workload.Invocation, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		f := fns[zipf.Uint64()]
		out[i] = workload.Invocation{
			Seq:     i,
			Fn:      f,
			Arrival: time.Duration(t * float64(time.Second)),
			Exec:    scale(f.Exec, 0.1, rng),
		}
	}
	return out
}

// warmTrace draws n invocations uniformly over fns, never repeating a
// function within window consecutive records, on a virtual timeline
// spaced by the catalog's longest exact-re-hit startup plus execution
// (+1ms). Every function's previous invocation has therefore finished
// in virtual time, and with fewer clients than window it has also
// returned on the host, so each repeat is an exact same-function re-hit.
func warmTrace(fns []*workload.Function, n, window int, rng *rand.Rand) []workload.Invocation {
	var step time.Duration
	for _, f := range fns {
		if d := container.Estimate(f, core.MatchL3, false).Total() + f.Exec; d > step {
			step = d
		}
	}
	step += time.Millisecond
	out := make([]workload.Invocation, n)
	recent := func(i int, f *workload.Function) bool {
		for j := i - 1; j >= 0 && j >= i-window; j-- {
			if out[j].Fn == f {
				return true
			}
		}
		return false
	}
	for i := range out {
		f := fns[rng.Intn(len(fns))]
		for recent(i, f) {
			f = fns[rng.Intn(len(fns))]
		}
		out[i] = workload.Invocation{Seq: i, Fn: f, Arrival: time.Duration(i+1) * step, Exec: f.Exec}
	}
	return out
}

// splitByFn reorders a trace into one contiguous range per client —
// client c gets the functions with ID%clients == c, in trace order — and
// returns the range bounds. Clients then share no function and no
// cursor: on serve-warm a shared per-request cursor would make two cores
// trade one cache line on every sub-microsecond call.
func splitByFn(trace []workload.Invocation, clients int) ([]workload.Invocation, []int) {
	out := make([]workload.Invocation, 0, len(trace))
	bounds := []int{0}
	for c := 0; c < clients; c++ {
		for _, inv := range trace {
			if inv.Fn.ID%clients == c {
				out = append(out, inv)
			}
		}
		bounds = append(bounds, len(out))
	}
	return out, bounds
}
