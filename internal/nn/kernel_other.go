//go:build !amd64

package nn

// useAVX is false off amd64: rowAcc, behind every zero-skipping matmul,
// always runs the portable axpyRow loops.
var useAVX = false

// rowAccAVX exists only so tensor.go compiles on every GOARCH; useAVX
// keeps it unreachable.
func rowAccAVX(o, a []float64, astride int, b []float64, ldb, kn int) {
	panic("nn: AVX kernel called off amd64")
}
