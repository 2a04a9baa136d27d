package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// specials are the values whose rounding, sign or zero-skip behaviour a
// kernel could get wrong: signed zeros (skipped as lhs), infinities and
// NaN (0·Inf and NaN must propagate exactly when the scalar loop
// computes them), and subnormals.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -1.7e-315,
	math.MaxFloat64, -math.MaxFloat64,
}

// randOperand fills a rows×cols tensor with Gaussian values, about a
// third exact zeros and a few specials.
func randOperand(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols).Randn(rng, 1)
	for i := range t.Data {
		switch r := rng.Intn(20); {
		case r < 6:
			t.Data[i] = 0
		case r == 6:
			t.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// sameBits reports whether two tensors hold the same float64 bit
// patterns, with any NaN matching any NaN (the scalar and vector units
// may propagate different NaN payloads; which payload is unspecified).
func sameBits(a, b *Tensor) (int, bool) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return -1, false
	}
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			return i, false
		}
	}
	return 0, true
}

// products runs every zero-skipping matmul entry point on one input
// set; the *Into ops get a copy of dst, whose contents they must ignore.
func products(a, b, at, bt, dst *Tensor) map[string]*Tensor {
	return map[string]*Tensor{
		"MatMul":      MatMul(a, b),
		"MatMulInto":  MatMulInto(dst.Clone(), a, b),
		"TMatMul":     TMatMul(at, bt),
		"TMatMulInto": TMatMulInto(dst.Clone(), at, bt),
	}
}

// TestKernelMatchesPortable compares every zero-skipping matmul with
// the AVX kernel on and off, bit for bit, over random shapes: n from 1
// to 70 covers every mix of 24/16/8/4-wide blocks and scalar tail, k up to
// 150, up to 9 rows, with exact zeros, −0, ±Inf, NaN and subnormals in
// both operands.
func TestKernelMatchesPortable(t *testing.T) {
	was := SetAVX(false)
	defer SetAVX(was)
	if !was {
		t.Skipf("no AVX kernel on this %s CPU; the portable path is the only path", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(1))
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	for it := 0; it < iters; it++ {
		n := it%70 + 1
		k := rng.Intn(150) + 1
		rows := rng.Intn(9) + 1
		a, b := randOperand(rng, rows, k), randOperand(rng, k, n)
		at, bt := randOperand(rng, k, rows), randOperand(rng, k, n)
		dst := randOperand(rng, rows, n)

		SetAVX(true)
		simd := products(a, b, at, bt, dst)
		SetAVX(false)
		for name, want := range products(a, b, at, bt, dst) {
			got := simd[name]
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s rows=%d k=%d n=%d: element %d = %v (%#x), portable %v (%#x)",
					name, rows, k, n, i, got.Data[i], math.Float64bits(got.Data[i]),
					want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestKernelShortDataPanics checks that a tensor whose Data is shorter
// than Rows*Cols panics with a Go bounds error on the way into the
// kernel instead of letting assembly read past its storage.
func TestKernelShortDataPanics(t *testing.T) {
	short := func(rows, cols int) *Tensor {
		return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols-1)}
	}
	full := func(rows, cols int) *Tensor { return NewTensor(rows, cols).Randn(rand.New(rand.NewSource(1)), 1) }
	cases := map[string]func(){
		"MatMul short a":        func() { MatMul(short(3, 20), full(20, 20)) },
		"MatMul short b":        func() { MatMul(full(3, 20), short(20, 20)) },
		"MatMulInto short dst":  func() { MatMulInto(short(3, 20), full(3, 20), full(20, 20)) },
		"TMatMul short a":       func() { TMatMul(short(20, 3), full(20, 20)) },
		"TMatMul short b":       func() { TMatMul(full(20, 3), short(20, 20)) },
		"TMatMulInto short dst": func() { TMatMulInto(short(3, 20), full(20, 3), full(20, 20)) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s: recovered %v, want a Go bounds panic", name, r)
				}
			}()
			f()
		}()
	}
}

// TestKernelBlockWidths aims at the column walk around the 24-wide
// block: one column short of it, exactly one, one past, 24+16, two
// blocks and two blocks plus 16+4+2. Every zero-skipping matmul must
// match the portable loops bit for bit, with a strided column view of
// b (ldb wider than the output) as well as a whole matrix.
func TestKernelBlockWidths(t *testing.T) {
	was := SetAVX(false)
	defer SetAVX(was)
	if !was {
		t.Skipf("no AVX kernel on this %s CPU; the portable path is the only path", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{23, 24, 25, 40, 48, 70} {
		for it := 0; it < 40; it++ {
			k, rows := rng.Intn(60)+1, rng.Intn(7)+1
			a, b := randOperand(rng, rows, k), randOperand(rng, k, n)
			at, bt := randOperand(rng, k, rows), randOperand(rng, k, n)
			dst := randOperand(rng, rows, n)
			wide, off := randOperand(rng, k, n+9), rng.Intn(10)
			strided := func() *Tensor {
				out := dst.Clone()
				for i := 0; i < rows; i++ {
					rowAcc(out.Row(i), a.Row(i), 1, wide.Data[off:], wide.Cols, k)
				}
				return out
			}
			SetAVX(true)
			simd := products(a, b, at, bt, dst)
			simd["strided"] = strided()
			SetAVX(false)
			want := products(a, b, at, bt, dst)
			want["strided"] = strided()
			for name, w := range want {
				if i, ok := sameBits(simd[name], w); !ok {
					t.Fatalf("%s rows=%d k=%d n=%d: element %d = %v, portable %v",
						name, rows, k, n, i, simd[name].Data[i], w.Data[i])
				}
			}
		}
	}
}

// TestMatMulTMatchesDotRow checks MatMulT and MatMulTInto, whose
// columns are computed four per sweep, against one dotRow per element,
// bit for bit, including the 1–3 column tail and special values.
func TestMatMulTMatchesDotRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 500; it++ {
		rows, n, k := rng.Intn(9)+1, it%13+1, rng.Intn(40)+1
		a, b := randOperand(rng, rows, k), randOperand(rng, n, k)
		want := NewTensor(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, dotRow(a.Row(i), b.Row(j)))
			}
		}
		for name, got := range map[string]*Tensor{
			"MatMulT":     MatMulT(a, b),
			"MatMulTInto": MatMulTInto(randOperand(rng, rows, n), a, b),
		} {
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s rows=%d k=%d n=%d: element %d = %v, dotRow %v", name, rows, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// refLayerNorm is LayerNorm.Forward one row at a time, as a reference
// for the paired-row sweep.
func refLayerNorm(ln *LayerNorm, x *Tensor) *Tensor {
	y := NewTensor(x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varsum float64
		for _, v := range row {
			d := v - mean
			varsum += d * d
		}
		inv := 1 / math.Sqrt(varsum/float64(len(row))+ln.Eps)
		for i, v := range row {
			y.Row(r)[i] = (v-mean)*inv*ln.Gain.W.Data[i] + ln.Bias.W.Data[i]
		}
	}
	return y
}

// propertyInput is a rows×cols input: Gaussian, or (every third
// iteration) sparse with special values.
func propertyInput(rng *rand.Rand, it, rows, cols int) *Tensor {
	if it%3 == 2 {
		return randOperand(rng, rows, cols)
	}
	return NewTensor(rows, cols).Randn(rng, 1)
}

// TestLayerNormForwardMatchesRowByRow runs LayerNorm.Forward at odd and
// even row counts, so the paired sweep and its single-row tail both
// run, against the row-at-a-time reference.
func TestLayerNormForwardMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{1, 2, 3, 7} {
		for it := 0; it < 30; it++ {
			dim := rng.Intn(30) + 1
			ln := NewLayerNorm("ln", dim)
			ln.Gain.W.Randn(rng, 1)
			ln.Bias.W.Randn(rng, 1)
			x := propertyInput(rng, it, rows, dim)
			if i, ok := sameBits(ln.Forward(x), refLayerNorm(ln, x)); !ok {
				t.Fatalf("rows=%d dim=%d: element %d differs from the row-by-row reference", rows, dim, i)
			}
		}
	}
}

// refAttention is MultiHeadAttention's forward and backward pass on
// copied heads: each head's q, k and v columns sliced out, MatMulT then
// Scale for the scores, MatMul for softmax×v, per-head gradient
// products added into zeroed dq, dk and dv, and input gradients through
// transposed weights. It returns the output, the
// input gradient for dy and the four weight gradients.
func refAttention(m *MultiHeadAttention, x, dy *Tensor) []*Tensor {
	cols := func(t *Tensor, start, w int) *Tensor {
		out := NewTensor(t.Rows, w)
		for r := 0; r < t.Rows; r++ {
			copy(out.Row(r), t.Row(r)[start:start+w])
		}
		return out
	}
	addCols := func(dst, src *Tensor, start int) {
		for r := 0; r < dst.Rows; r++ {
			for i, v := range src.Row(r) {
				dst.Row(r)[start+i] += v
			}
		}
	}
	transpose := func(w *Tensor) *Tensor {
		wt := NewTensor(w.Cols, w.Rows)
		TransposeInto(wt, w)
		return wt
	}
	q, k, v := MatMul(x, m.Wq.W), MatMul(x, m.Wk.W), MatMul(x, m.Wv.W)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	heads := NewTensor(x.Rows, m.Dim)
	attn := make([]*Tensor, m.Heads)
	for h := 0; h < m.Heads; h++ {
		attn[h] = SoftmaxRows(MatMulT(cols(q, h*dk, dk), cols(k, h*dk, dk)).Scale(scale))
		addCols(heads, MatMul(attn[h], cols(v, h*dk, dk)), h*dk)
	}
	out := MatMul(heads, m.Wo.W)
	AddInto(out, x)

	dx := dy.Clone()
	gWo := TMatMul(heads, dy)
	dHeads := MatMul(dy, transpose(m.Wo.W))
	dq, dK, dv := NewTensor(x.Rows, m.Dim), NewTensor(x.Rows, m.Dim), NewTensor(x.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		start := h * dk
		dHh := cols(dHeads, start, dk)
		dA := MatMulT(dHh, cols(v, start, dk))
		addCols(dv, TMatMul(attn[h], dHh), start)
		dS := softmaxBackwardRows(attn[h], dA).Scale(scale)
		addCols(dq, MatMul(dS, cols(k, start, dk)), start)
		addCols(dK, TMatMul(dS, cols(q, start, dk)), start)
	}
	AddInto(dx, MatMul(dq, transpose(m.Wq.W)))
	AddInto(dx, MatMul(dK, transpose(m.Wk.W)))
	AddInto(dx, MatMul(dv, transpose(m.Wv.W)))
	return []*Tensor{out, dx, TMatMul(x, dq), TMatMul(x, dK), TMatMul(x, dv), gWo}
}

// TestAttentionMatchesCopiedHeads runs MultiHeadAttention forward and
// backward, whose heads are strided views, against refAttention at 1,
// 2, 3 and 7 rows and several head splits, bit for bit, with the AVX
// kernel off and on.
func TestAttentionMatchesCopiedHeads(t *testing.T) {
	was := SetAVX(false)
	defer SetAVX(was)
	for _, avx := range []bool{false, was} {
		SetAVX(avx)
		rng := rand.New(rand.NewSource(5))
		shapes := [][2]int{{24, 2}, {12, 3}, {8, 1}, {10, 5}}
		for _, rows := range []int{1, 2, 3, 7} {
			for it := 0; it < 20; it++ {
				sh := shapes[it%len(shapes)]
				m := NewMultiHeadAttention("attn", sh[0], sh[1], rng)
				x := propertyInput(rng, it, rows, sh[0])
				dy := propertyInput(rng, it+1, rows, sh[0])
				want := refAttention(m, x, dy)
				out := m.Forward(x).Clone()
				dx := m.Backward(dy)
				got := []*Tensor{out, dx, m.Wq.Grad, m.Wk.Grad, m.Wv.Grad, m.Wo.Grad}
				for i, name := range []string{"output", "dx", "dWq", "dWk", "dWv", "dWo"} {
					if e, ok := sameBits(got[i], want[i]); !ok {
						t.Fatalf("AVX %v rows=%d dim=%d heads=%d: %s element %d = %v, copied heads %v",
							avx, rows, sh[0], sh[1], name, e, got[i].Data[e], want[i].Data[e])
					}
				}
			}
		}
	}
}
