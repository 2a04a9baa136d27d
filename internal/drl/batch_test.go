package drl

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mlcr/internal/nn"
)

// batchTestNet builds a small deterministic network plus a set of
// deterministic input states.
func batchTestNet(seed int64, states int) (*QNetwork, []*nn.Tensor) {
	cfg := QConfig{Tokens: 4, Width: 6, Actions: 5, Dim: 8, Heads: 2, Hidden: 16}
	rng := rand.New(rand.NewSource(seed))
	net := NewQNetwork(cfg, rng)
	xs := make([]*nn.Tensor, states)
	for i := range xs {
		x := nn.NewTensor(cfg.Tokens, cfg.Width)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return net, xs
}

// TestQBatcherMatchesSequential pins the batched/sequential
// equivalence contract: every Q-vector served through a hammered
// QBatcher is bit-identical to a standalone ForwardInto on a network
// with the same weights, so a batched decision's MaskedArgmax is the
// sequential path's argmax by construction.
func TestQBatcherMatchesSequential(t *testing.T) {
	net, xs := batchTestNet(7, 64)
	ref, _ := batchTestNet(7, 0) // identical weights (same seed)
	want := make([]*nn.Tensor, len(xs))
	for i, x := range xs {
		want[i] = ref.ForwardInto(nil, x)
	}

	b := NewQBatcher(net, 8)
	const workers = 8
	const rounds = 4
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tok := NewBatchToken()
			var dst *nn.Tensor
			for r := 0; r < rounds; r++ {
				for i := w; i < len(xs); i += workers {
					dst = b.ForwardInto(tok, dst, xs[i])
					for j, v := range dst.Data {
						if v != want[i].Data[j] {
							errs <- "batched Q-vector diverges from sequential ForwardInto"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := b.Requests(); got != int64(rounds*len(xs)) {
		t.Fatalf("Requests = %d, want %d", got, rounds*len(xs))
	}
	if b.Batches() <= 0 || b.MaxBatchSeen() <= 0 {
		t.Fatalf("batch stats not recorded: batches=%d max=%d", b.Batches(), b.MaxBatchSeen())
	}
	if b.MaxBatchSeen() > int64(b.MaxBatch()) {
		t.Fatalf("flush of %d exceeds MaxBatch %d", b.MaxBatchSeen(), b.MaxBatch())
	}
}

// TestQBatcherAmortizes checks that under concurrent load at least one
// flush served more than one request (the whole point of batching).
func TestQBatcherAmortizes(t *testing.T) {
	net, xs := batchTestNet(11, 32)
	b := NewQBatcher(net, 16)
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tok := NewBatchToken()
			var dst *nn.Tensor
			<-start
			for r := 0; r < 64; r++ {
				dst = b.ForwardInto(tok, dst, xs[(w+r)%len(xs)])
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if b.Requests() != workers*64 {
		t.Fatalf("Requests = %d, want %d", b.Requests(), workers*64)
	}
	// With GOMAXPROCS=1 contention can be scarce; amortization just has
	// to be possible, i.e. batches never exceed requests and stats hold.
	if b.Batches() > b.Requests() {
		t.Fatalf("batches %d > requests %d", b.Batches(), b.Requests())
	}
}

// TestQBatcherSteadyStateAllocs pins the 0-alloc contract on the
// batched inference path: a warmed-up caller with a reused token and
// dst tensor allocates nothing per decision.
func TestQBatcherSteadyStateAllocs(t *testing.T) {
	net, xs := batchTestNet(13, 4)
	b := NewQBatcher(net, 8)
	tok := NewBatchToken()
	var dst *nn.Tensor
	dst = b.ForwardInto(tok, dst, xs[0]) // warm: grow dst, queue, batch scratch
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst = b.ForwardInto(tok, dst, xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("batched inference steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestQBatcherSlotsFollowMasterUpdates pins the shared-parameter
// contract of the inference slots: after the wrapped network's weights
// change — by nn.CopyParams from another network, or by an Agent.Load
// round trip — every slot's output is bit-identical to the master's
// own ForwardInto. A slot holding copied weights or a stale cached
// transpose fails here.
func TestQBatcherSlotsFollowMasterUpdates(t *testing.T) {
	cfg := AgentConfig{Q: QConfig{Tokens: 4, Width: 6, Actions: 5, Dim: 8, Heads: 2, Hidden: 16}}
	agent := NewAgent(cfg, 21)
	master := agent.Online()
	b := NewQBatcher(master, 8)
	_, xs := batchTestNet(22, 6)
	check := func(stage string) {
		t.Helper()
		for i, x := range xs {
			want := master.ForwardInto(nil, x)
			for k, s := range b.slots {
				got := s.net.ForwardInto(nil, x)
				for j, v := range got.Data {
					if v != want.Data[j] {
						t.Fatalf("%s: slot %d state %d Q[%d] = %v, master %v", stage, k, i, j, v, want.Data[j])
					}
				}
			}
		}
	}
	check("fresh")

	other, _ := batchTestNet(23, 0)
	nn.CopyParams(master.Params(), other.Params())
	check("after CopyParams")

	var buf bytes.Buffer
	if err := NewAgent(cfg, 24).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := agent.Load(&buf); err != nil {
		t.Fatal(err)
	}
	check("after Agent.Load")
}

// TestQBatcherHammerAroundSlotCount runs the batched/sequential hammer
// of TestQBatcherMatchesSequential with as many workers as slots (every
// caller can lead in parallel) and with more workers than slots (callers
// block and group commit forms batches).
func TestQBatcherHammerAroundSlotCount(t *testing.T) {
	net, xs := batchTestNet(7, 64)
	ref, _ := batchTestNet(7, 0)
	want := make([]*nn.Tensor, len(xs))
	for i, x := range xs {
		want[i] = ref.ForwardInto(nil, x)
	}
	slots := len(NewQBatcher(net, 8).slots)
	for _, workers := range []int{slots, 2*slots + 1} {
		b := NewQBatcher(net, 8)
		const rounds = 4
		var bad atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tok := NewBatchToken()
				var dst *nn.Tensor
				for r := 0; r < rounds; r++ {
					for i := w; i < len(xs); i += workers {
						dst = b.ForwardInto(tok, dst, xs[i])
						for j, v := range dst.Data {
							if v != want[i].Data[j] {
								bad.Store(true)
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if bad.Load() {
			t.Fatalf("workers=%d slots=%d: batched Q-vector diverges from sequential ForwardInto", workers, slots)
		}
		if got, n := b.Requests(), int64(rounds*len(xs)); got != n {
			t.Fatalf("workers=%d: Requests = %d, want %d", workers, got, n)
		}
		if b.MaxBatchSeen() > int64(b.MaxBatch()) {
			t.Fatalf("workers=%d: flush of %d exceeds MaxBatch %d", workers, b.MaxBatchSeen(), b.MaxBatch())
		}
	}
}

// TestQBatcherConcurrentSteadyStateAllocs extends the 0-alloc contract
// to the parallel slot path: two warmed-up callers hitting the batcher
// at once allocate nothing per decision.
func TestQBatcherConcurrentSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	net, xs := batchTestNet(13, 4)
	b := NewQBatcher(net, 8)
	const callers, runs = 2, 500
	toks := make([]*BatchToken, callers)
	dsts := make([]*nn.Tensor, callers)
	for c := range toks { // warm: grow each dst and the queue
		toks[c] = NewBatchToken()
		dsts[c] = b.ForwardInto(toks[c], dsts[c], xs[0])
	}
	for _, s := range b.slots { // warm every slot's replica and scratch
		s.net.ForwardInto(nil, xs[0])
		s.batch = make([]*BatchToken, 0, callers)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < runs; i++ {
				dsts[c] = b.ForwardInto(toks[c], dsts[c], xs[i%len(xs)])
			}
		}(c)
	}
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	wg.Wait()
	runtime.ReadMemStats(&after)
	if per := (after.Mallocs - before.Mallocs) / (callers * runs); per != 0 {
		t.Fatalf("concurrent batched inference allocates %d/op, want 0", per)
	}
}

// BenchmarkQBatcherParallel measures one forward pass per op through
// the batcher at the served network shape (six tokens of featurizer
// width, five actions), one token per parallel caller.
func BenchmarkQBatcherParallel(b *testing.B) {
	const tokens = 6
	rng := rand.New(rand.NewSource(1))
	net := NewQNetwork(QConfig{Tokens: tokens, Width: tokenWidth, Actions: 5, Dim: 24, Heads: 2, Hidden: 48}, rng)
	// A featurized state is sparse: a handful of one-hot and scalar
	// features per token, the rest zero.
	x := nn.NewTensor(tokens, tokenWidth)
	for r := 0; r < tokens; r++ {
		row := x.Row(r)
		for k := 0; k < 4; k++ {
			row[rng.Intn(tokenWidth)] = rng.Float64()
		}
	}
	qb := NewQBatcher(net, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tok := NewBatchToken()
		var dst *nn.Tensor
		for pb.Next() {
			dst = qb.ForwardInto(tok, dst, x)
		}
	})
}
