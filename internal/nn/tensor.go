// Package nn is a small, dependency-free neural-network library built for
// the DQN container scheduler: dense float64 tensors, layers with explicit
// backward passes (linear, ReLU, layer normalization, multi-head
// attention), the Adam optimizer, and gob-based model serialization.
//
// The library trades generality for clarity and determinism. Layers
// process one sample at a time ([rows, cols] matrices, where rows is a
// token/sequence dimension); minibatching is done by accumulating
// gradients across per-sample backward passes, which is exact for the
// sum-of-losses objective and keeps every op simple enough to verify with
// finite-difference tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix of float64.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor allocates a zeroed rows×cols tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(data []float64, rows, cols int) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// RowVector wraps data as a 1×n tensor (not copied).
func RowVector(data []float64) *Tensor { return FromSlice(data, 1, len(data)) }

// At returns element (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Row returns a view of row r (shared storage).
func (t *Tensor) Row(r int) []float64 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone returns a deep copy.
//
//mlcr:allow hotalloc a deep copy allocates by definition; hot paths clone only in training mode (transition capture), never while serving
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with Gaussian noise scaled by std.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// EnsureTensor returns t reshaped to rows×cols when its backing array is
// large enough, or a freshly allocated tensor otherwise. It is the
// workspace primitive: steady-state calls with a stable shape reuse the
// same storage and never touch the heap. The returned tensor's contents
// are unspecified — callers that need zeros must Zero it (the *Into ops
// below do their own zeroing where the naive op started from zeros).
//
//mlcr:allow hotalloc grow-on-shape-change workspace: allocates only when the requested shape outgrows the cached tensor; steady state reslices in place
func EnsureTensor(t *Tensor, rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	if t == nil || cap(t.Data) < rows*cols {
		return NewTensor(rows, cols)
	}
	t.Rows, t.Cols = rows, cols
	t.Data = t.Data[:rows*cols]
	return t
}

// CopyInto copies src into dst element-wise. Shapes must match.
func CopyInto(dst, src *Tensor) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("nn: copy %dx%d <- %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	copy(dst.Data, src.Data)
}

// TransposeInto writes srcᵀ into dst. dst must be src.Cols×src.Rows.
func TransposeInto(dst, src *Tensor) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("nn: transpose %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		for j, v := range srow {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// axpyRow computes orow[j] += av*brow[j] for every j, 4-way unrolled.
// Output elements are independent, so the unroll changes instruction
// scheduling only — every orow[j] sees the same single add it would in
// the plain loop. It is the portable matmul path (no AVX, or a GOARCH
// other than amd64) and the reference the AVX kernel must match.
func axpyRow(orow, brow []float64, av float64) {
	n := len(brow)
	orow = orow[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		orow[j] += av * brow[j]
		orow[j+1] += av * brow[j+1]
		orow[j+2] += av * brow[j+2]
		orow[j+3] += av * brow[j+3]
	}
	for ; j < n; j++ {
		orow[j] += av * brow[j]
	}
}

// rowAcc computes o[j] += Σ_k a[k·astride]·b[k·ldb+j] for every column
// j of o, k ascending from 0 to kn-1, skipping exact-zero a entries.
// It is the one accumulation order behind every zero-skipping matmul:
// with AVX the row goes to rowAccAVX, which keeps column blocks in
// registers across the k loop; otherwise each nonzero a term is one
// axpyRow sweep. Both perform the same multiplies and adds in the same
// order per output element. The strides let callers pass views: a
// column of a (astride = a.Cols) or a column block of b (ldb wider
// than o), without copying either.
func rowAcc(o, a []float64, astride int, b []float64, ldb, kn int) {
	if useAVX {
		rowAccAVX(o, a, astride, b, ldb, kn)
		return
	}
	n := len(o)
	for k := 0; k < kn; k++ {
		if av := a[k*astride]; av != 0 {
			axpyRow(o, b[k*ldb:k*ldb+n], av)
		}
	}
}

// matMulAcc accumulates a×b into out without zeroing it first, one
// rowAcc per output row. The order (k ascending per output element,
// exact-zero lhs entries skipped) is the single definition shared by
// MatMul and MatMulInto, so the two are bit-identical by construction.
func matMulAcc(out, a, b *Tensor) {
	bd := b.Data[:b.Rows*b.Cols]
	for i := 0; i < a.Rows; i++ {
		rowAcc(out.Row(i), a.Row(i), 1, bd, b.Cols, a.Cols)
	}
}

// MatMul returns a×b. Panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Cols)
	matMulAcc(out, a, b)
	return out
}

// MatMulInto computes a×b into dst (zeroed first), producing exactly the
// values MatMul would, with no allocation. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	matMulAcc(dst, a, b)
	return dst
}

// matMulTCore writes a×bᵀ into out, overwriting every element.
func matMulTCore(out, a, b *Tensor) {
	bd := b.Data[:b.Rows*b.Cols]
	for i := 0; i < a.Rows; i++ {
		dotRowsInto(out.Row(i), a.Row(i), bd, b.Cols, 1)
	}
}

// dotRowsInto writes o[j] = scale·dotRow(arow, b[j·ldb : j·ldb+len(arow)])
// for every column j of o: the dot products of arow with len(o) rows of
// b spaced ldb apart, so b may be a column block of a wider matrix.
// Four columns share each sweep over k, each in its own accumulator
// with dotRow's k-ascending, no-skip order: the four add chains are
// independent and overlap, while every element sees exactly dotRow's
// adds. The scale is one rounded multiply per element (exact for 1).
func dotRowsInto(o, arow, b []float64, ldb int, scale float64) {
	kn := len(arow)
	j := 0
	for ; j+4 <= len(o); j += 4 {
		b0 := b[j*ldb:][:kn]
		b1 := b[(j+1)*ldb:][:kn]
		b2 := b[(j+2)*ldb:][:kn]
		b3 := b[(j+3)*ldb:][:kn]
		var s0, s1, s2, s3 float64
		for k, av := range arow {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		o[j], o[j+1], o[j+2], o[j+3] = s0*scale, s1*scale, s2*scale, s3*scale
	}
	for ; j < len(o); j++ {
		o[j] = dotRow(arow, b[j*ldb:][:kn]) * scale
	}
}

// dotRow returns the k-ascending dot product of two equal-length rows —
// the reference order for every element dotRowsInto writes.
func dotRow(arow, brow []float64) float64 {
	brow = brow[:len(arow)]
	var s float64
	for k, av := range arow {
		s += av * brow[k]
	}
	return s
}

// MatMulT returns a×bᵀ.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Rows)
	matMulTCore(out, a, b)
	return out
}

// MatMulTInto computes a×bᵀ into dst with no allocation; values equal
// MatMulT exactly. dst must not alias a or b.
func MatMulTInto(dst, a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmulT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	matMulTCore(dst, a, b)
	return dst
}

// tMatMulAcc accumulates aᵀ×b into out without zeroing it first. Each
// output element (i, j) adds a[k][i]·b[k][j] for k ascending, skipping
// exact-zero a entries: output row i is one rowAcc over column i of a,
// read in place with stride a.Cols.
func tMatMulAcc(out, a, b *Tensor) {
	if a.Rows == 0 {
		return
	}
	ad := a.Data[:a.Rows*a.Cols]
	bd := b.Data[:b.Rows*b.Cols]
	for i := 0; i < a.Cols; i++ {
		rowAcc(out.Row(i), ad[i:], a.Cols, bd, b.Cols, a.Rows)
	}
}

// TMatMul returns aᵀ×b.
func TMatMul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: tmatmul (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Cols, b.Cols)
	tMatMulAcc(out, a, b)
	return out
}

// TMatMulInto computes aᵀ×b into dst (zeroed first) with no allocation;
// values equal TMatMul exactly. dst must not alias a or b.
func TMatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: tmatmul (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: tmatmul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	tMatMulAcc(dst, a, b)
	return dst
}

// AddInto adds b into a element-wise (a += b).
func AddInto(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: add %dx%d += %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// SoftmaxRows applies softmax independently to each row, returning a new
// tensor. Numerically stable (max-shifted).
func SoftmaxRows(t *Tensor) *Tensor {
	return SoftmaxRowsInto(NewTensor(t.Rows, t.Cols), t)
}

// SoftmaxRowsInto computes the row-wise softmax of t into out (fully
// overwritten) with no allocation; values equal SoftmaxRows exactly.
// out may be t itself: each element is read before it is written.
func SoftmaxRowsInto(out, t *Tensor) *Tensor {
	if out.Rows != t.Rows || out.Cols != t.Cols {
		panic(fmt.Sprintf("nn: softmax dst %dx%d, want %dx%d", out.Rows, out.Cols, t.Rows, t.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		orow := out.Row(r)
		for i, v := range row {
			e := math.Exp(v - max)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
	return out
}

// softmaxBackwardRows computes the gradient through a row-wise softmax:
// dx_i = y_i * (dy_i - Σ_j dy_j y_j) for each row, where y is the softmax
// output.
func softmaxBackwardRows(y, dy *Tensor) *Tensor {
	return softmaxBackwardRowsInto(NewTensor(y.Rows, y.Cols), y, dy)
}

// softmaxBackwardRowsInto is softmaxBackwardRows into a caller-provided
// tensor (fully overwritten).
func softmaxBackwardRowsInto(dx, y, dy *Tensor) *Tensor {
	for r := 0; r < y.Rows; r++ {
		yr, dyr, dxr := y.Row(r), dy.Row(r), dx.Row(r)
		var dot float64
		for i := range yr {
			dot += dyr[i] * yr[i]
		}
		for i := range yr {
			dxr[i] = yr[i] * (dyr[i] - dot)
		}
	}
	return dx
}

// Argmax returns the index of the maximum element of a 1×n or n×1 tensor
// flattened in row-major order.
func Argmax(t *Tensor) int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
