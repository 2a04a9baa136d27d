package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MultiHeadAttention is a standard scaled dot-product self-attention
// block (Vaswani et al.) with a residual connection:
//
//	y = x + Concat(head_1..head_h) Wo
//	head_i = softmax(Q_i K_iᵀ / √d_k) V_i
//
// where Q = xWq, K = xWk, V = xWv and d_k = dim/heads. The residual
// connection keeps deep Q-networks trainable; the paper stacks two of
// these blocks in its policy network (Section IV-C).
type MultiHeadAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *Param

	// forward caches
	x        *Tensor
	q, k, v  *Tensor
	attn     []*Tensor // per-head softmax outputs [seq, seq]
	headsOut *Tensor   // concatenated head outputs [seq, dim]

	// Workspace: buffers reused across calls so steady-state
	// Forward/Backward allocates nothing. Heads are never copied out:
	// head h is the column block [h·dk, (h+1)·dk) of q, k, v and of
	// their gradients, read and written in place with row stride Dim.
	out                    *Tensor // forward output
	dx, dHeads, dq, dk, dv *Tensor // backward accumulators
	dA, dS                 *Tensor // per-head [seq, seq] backward scratches
	gw                     *Tensor // dim×dim weight-gradient scratch
	dxTerm                 *Tensor // seq×dim input-gradient term scratch
	// cached transposes of the projection weights for the backward
	// input-gradient matmuls, invalidated on optimizer step via the
	// Param version counter.
	wqT, wkT, wvT, woT paramTranspose
}

// NewMultiHeadAttention creates an attention block. dim must be divisible
// by heads.
func NewMultiHeadAttention(name string, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", dim, heads))
	}
	m := &MultiHeadAttention{Dim: dim, Heads: heads,
		Wq: newParam(name+".wq", dim, dim),
		Wk: newParam(name+".wk", dim, dim),
		Wv: newParam(name+".wv", dim, dim),
		Wo: newParam(name+".wo", dim, dim),
	}
	std := math.Sqrt(1 / float64(dim))
	for _, p := range []*Param{m.Wq, m.Wk, m.Wv, m.Wo} {
		p.W.Randn(rng, std)
		p.MarkUpdated()
	}
	return m
}

// Forward implements Layer. x is [seq, dim]. Per head, the scores
// read the head's column blocks of q and k in place, scaled by 1/√d_k
// as they are written, and are normalized in place; softmax×v_h reads
// v's column block with row stride Dim and accumulates straight into
// the head's block of the zeroed headsOut. The result is bit-identical
// to MatMulT, Scale and MatMul on copied heads added into headsOut: a
// sum that starts from +0 is never −0, and +0 + s = s for every other s.
func (m *MultiHeadAttention) Forward(x *Tensor) *Tensor {
	if x.Cols != m.Dim {
		panic(fmt.Sprintf("nn: attention expects width %d, got %d", m.Dim, x.Cols))
	}
	m.x = x
	rows := x.Rows
	m.q = EnsureTensor(m.q, rows, m.Dim)
	m.k = EnsureTensor(m.k, rows, m.Dim)
	m.v = EnsureTensor(m.v, rows, m.Dim)
	MatMulInto(m.q, x, m.Wq.W)
	MatMulInto(m.k, x, m.Wk.W)
	MatMulInto(m.v, x, m.Wv.W)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	if len(m.attn) != m.Heads {
		m.attn = make([]*Tensor, m.Heads)
	}
	m.headsOut = EnsureTensor(m.headsOut, rows, m.Dim)
	m.headsOut.Zero()
	for h := 0; h < m.Heads; h++ {
		start := h * dk
		m.attn[h] = EnsureTensor(m.attn[h], rows, rows)
		a := m.attn[h]
		for i := 0; i < rows; i++ {
			dotRowsInto(a.Row(i), m.q.Row(i)[start:start+dk], m.k.Data[start:], m.Dim, scale)
		}
		SoftmaxRowsInto(a, a)
		for i := 0; i < rows; i++ {
			rowAcc(m.headsOut.Row(i)[start:start+dk], a.Row(i), 1, m.v.Data[start:], m.Dim, rows)
		}
	}
	m.out = EnsureTensor(m.out, rows, m.Dim)
	out := MatMulInto(m.out, m.headsOut, m.Wo.W)
	AddInto(out, x) // residual
	return out
}

// Backward implements Layer. Head gradients use Forward's column
// blocks in place and accumulate straight into the head's block of the
// zeroed dq, dk and dv, bit-identical for the same reason.
func (m *MultiHeadAttention) Backward(dy *Tensor) *Tensor {
	rows := m.x.Rows
	// Residual path.
	m.dx = EnsureTensor(m.dx, rows, m.Dim)
	dx := m.dx
	CopyInto(dx, dy)

	// Output projection.
	m.gw = EnsureTensor(m.gw, m.Dim, m.Dim)
	AddInto(m.Wo.Grad, TMatMulInto(m.gw, m.headsOut, dy))
	m.dHeads = EnsureTensor(m.dHeads, rows, m.Dim)
	dHeads := MatMulInto(m.dHeads, dy, m.woT.of(m.Wo)) // dy×Woᵀ [seq, dim]

	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	m.dq = EnsureTensor(m.dq, rows, m.Dim)
	m.dk = EnsureTensor(m.dk, rows, m.Dim)
	m.dv = EnsureTensor(m.dv, rows, m.Dim)
	dq, dkT, dv := m.dq, m.dk, m.dv
	dq.Zero()
	dkT.Zero()
	dv.Zero()
	m.dA = EnsureTensor(m.dA, rows, rows)
	m.dS = EnsureTensor(m.dS, rows, rows)
	for h := 0; h < m.Heads; h++ {
		start, end := h*dk, (h+1)*dk
		a := m.attn[h]
		// dA = dH_h×V_hᵀ, dV_h = Aᵀ×dH_h  [seq, seq], [seq, dk]
		for i := 0; i < rows; i++ {
			dotRowsInto(m.dA.Row(i), dHeads.Row(i)[start:end], m.v.Data[start:], m.Dim, 1)
			rowAcc(dv.Row(i)[start:end], a.Data[i:], rows, dHeads.Data[start:], m.Dim, rows)
		}
		dS := softmaxBackwardRowsInto(m.dS, a, m.dA).Scale(scale)
		// dQ_h = dS×K_h, dK_h = dSᵀ×Q_h  [seq, dk]
		for i := 0; i < rows; i++ {
			rowAcc(dq.Row(i)[start:end], dS.Row(i), 1, m.k.Data[start:], m.Dim, rows)
			rowAcc(dkT.Row(i)[start:end], dS.Data[i:], rows, m.q.Data[start:], m.Dim, rows)
		}
	}

	AddInto(m.Wq.Grad, TMatMulInto(m.gw, m.x, dq))
	AddInto(m.Wk.Grad, TMatMulInto(m.gw, m.x, dkT))
	AddInto(m.Wv.Grad, TMatMulInto(m.gw, m.x, dv))

	m.dxTerm = EnsureTensor(m.dxTerm, rows, m.Dim)
	AddInto(dx, MatMulInto(m.dxTerm, dq, m.wqT.of(m.Wq)))
	AddInto(dx, MatMulInto(m.dxTerm, dkT, m.wkT.of(m.Wk)))
	AddInto(dx, MatMulInto(m.dxTerm, dv, m.wvT.of(m.Wv)))
	return dx
}

// Params implements Layer.
func (m *MultiHeadAttention) Params() []*Param {
	return []*Param{m.Wq, m.Wk, m.Wv, m.Wo}
}
