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
// to 70 covers every mix of 16/8/4-wide blocks and scalar tail, k up to
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
