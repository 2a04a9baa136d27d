package drl

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mlcr/internal/nn"
)

// BatchToken is one caller's registration with a QBatcher. Tokens are
// reusable: a caller (one goroutine at a time) allocates one token up
// front and passes it to every ForwardInto call, so the steady-state
// batched-inference path allocates nothing. A token must not be shared
// by concurrent callers.
type BatchToken struct {
	x    *nn.Tensor
	dst  *nn.Tensor
	done chan struct{}
	// seq, once a QBatcher numbered the token (from 1), picks where its
	// slot scan starts, so concurrent callers try different slots first.
	seq uint32
}

// NewBatchToken allocates a reusable batching token.
func NewBatchToken() *BatchToken {
	return &BatchToken{done: make(chan struct{}, 1)}
}

// QBatcher serves concurrent inference requests against one shared
// Q-network, running forward passes in parallel up to the CPU count
// and coalescing the overflow into batched passes.
//
// It holds a fixed set of inference slots, GOMAXPROCS at construction.
// Each slot is a replica of the wrapped network (nn.NewReplica): it
// shares the network's parameters and owns its layer workspaces, so
// slots compute concurrently while a weight update on the wrapped
// network reaches every slot at once (forward passes read the shared
// weights directly). A caller enqueues its state, then takes any
// free slot with TryLock, scanning from its token's home slot (tokens
// are numbered on first use, spreading concurrent callers over the
// slots). The caller that gets a slot leads: it drains the queue (up
// to MaxBatch) and runs the drained requests back-to-back through that
// slot's replica in one ForwardBatchInto call. Followers whose result
// a leader computed return without touching a network.
//
// Only when every slot is busy does a caller block, on its token's
// home slot, and then group commit takes over with no timers: while
// the slots are busy, later arrivals pile up in the queue and the next
// leader serves them in one batch, so a blocked request waits out at
// most its home slot's in-flight batch. With a single CPU there is one
// slot and the path is the classic leader/follower group commit.
//
// Results are bit-identical to sequential ForwardInto calls on the
// wrapped network: every slot reads the same weights, and a forward
// pass depends only on the weights and the input, never on workspace
// residue (the workspace contract of DESIGN.md §8).
type QBatcher struct {
	maxBatch int

	qmu   sync.Mutex // guards queue
	queue []*BatchToken

	slots  []*qslot
	tokens atomic.Uint32 // numbers tokens on first use

	requests atomic.Int64
	batches  atomic.Int64
	maxSeen  atomic.Int64
}

// qslot is one inference slot: a network replica and its drain scratch,
// both owned by whichever caller holds mu.
type qslot struct {
	mu    sync.Mutex
	net   *QNetwork
	batch []*BatchToken
}

// NewQBatcher wraps net for concurrent batched inference, with one
// inference slot per GOMAXPROCS. maxBatch bounds one flush (<= 0 means
// 64); a bound keeps the tail latency of a follower proportional to
// maxBatch forward passes even under unbounded queue growth.
func NewQBatcher(net *QNetwork, maxBatch int) *QBatcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	b := &QBatcher{maxBatch: maxBatch, slots: make([]*qslot, runtime.GOMAXPROCS(0))}
	for i := range b.slots {
		b.slots[i] = &qslot{net: net.replica()}
	}
	return b
}

// ForwardInto computes Q-values for state x into dst (grown when
// needed) through the shared network, in parallel with or batched
// alongside whatever other requests are in flight. t must be this
// caller's own reusable token. The returned tensor is caller-owned,
// valid until the caller's next ForwardInto with the same dst.
func (b *QBatcher) ForwardInto(t *BatchToken, dst, x *nn.Tensor) *nn.Tensor {
	t.x, t.dst = x, dst
	if t.seq == 0 {
		t.seq = b.tokens.Add(1)
	}
	b.qmu.Lock()
	b.queue = append(b.queue, t)
	b.qmu.Unlock()
	b.requests.Add(1)
	for {
		select {
		case <-t.done: // a leader served this request
			t.x = nil
			return t.dst
		default:
		}
		s := b.acquire(t)
		select {
		case <-t.done: // served while waiting to lead
			s.mu.Unlock()
			t.x = nil
			return t.dst
		default:
		}
		n := b.flush(s)
		s.mu.Unlock()
		if n == 0 {
			// The queue was empty, so another slot's leader drained
			// this request and is computing it now.
			<-t.done
			t.x = nil
			return t.dst
		}
	}
}

// acquire returns a locked slot: the first free one scanning from t's
// home slot or, when every slot is busy, the home slot itself once its
// current leader releases it.
func (b *QBatcher) acquire(t *BatchToken) *qslot {
	n := uint32(len(b.slots))
	home := t.seq % n
	for i := uint32(0); i < n; i++ {
		if s := b.slots[(home+i)%n]; s.mu.TryLock() {
			return s
		}
	}
	s := b.slots[home]
	s.mu.Lock()
	return s
}

// flush drains up to maxBatch queued requests and serves them in one
// batched forward pass through slot s, returning how many it served.
// Caller holds s.mu.
func (b *QBatcher) flush(s *qslot) int {
	b.qmu.Lock()
	n := min(len(b.queue), b.maxBatch)
	s.batch = s.batch[:0]
	for _, r := range b.queue[:n] {
		s.batch = append(s.batch, r)
	}
	rest := copy(b.queue, b.queue[n:])
	clear(b.queue[rest:])
	b.queue = b.queue[:rest]
	b.qmu.Unlock()
	if n == 0 {
		return 0
	}
	s.net.ForwardBatchInto(s.batch)
	for _, r := range s.batch {
		r.done <- struct{}{}
	}
	b.batches.Add(1)
	for {
		seen := b.maxSeen.Load()
		if int64(n) <= seen || b.maxSeen.CompareAndSwap(seen, int64(n)) {
			break
		}
	}
	return n
}

// Requests is the total number of ForwardInto calls served.
func (b *QBatcher) Requests() int64 { return b.requests.Load() }

// Batches is the number of flushes run; Requests/Batches is the mean
// amortization factor.
func (b *QBatcher) Batches() int64 { return b.batches.Load() }

// MaxBatchSeen is the largest single flush so far.
func (b *QBatcher) MaxBatchSeen() int64 { return b.maxSeen.Load() }

// MaxBatch is the configured per-flush bound.
func (b *QBatcher) MaxBatch() int { return b.maxBatch }
