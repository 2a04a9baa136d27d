package nn

// useAVX routes rowAcc, behind every zero-skipping matmul, through the
// AVX kernel. It is set once at package init from CPUID and XGETBV;
// tests clear it to run the portable axpyRow loops, the reference the
// kernel must match bit for bit.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU implements AVX (CPUID.1:ECX bit 28)
// and the OS saves YMM state across context switches (OSXSAVE, bit 27,
// with XMM and YMM enabled in XCR0).
func cpuHasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	const xmmYmm = 1<<1 | 1<<2
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&xmmYmm == xmmYmm
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// accBlock24, accBlock16, accBlock8 and accBlock4 add
// Σ_k a[k·astride]·b[k·ldb+j] (k ascending, ordered-zero a terms
// skipped) into o[j] for the first 24, 16, 8 or 4 columns j, in YMM
// registers. They trust their caller for bounds; only rowAccAVX calls
// them.

//go:noescape
func accBlock24(o, a *float64, astride int, b *float64, ldb, kn int)

//go:noescape
func accBlock16(o, a *float64, astride int, b *float64, ldb, kn int)

//go:noescape
func accBlock8(o, a *float64, astride int, b *float64, ldb, kn int)

//go:noescape
func accBlock4(o, a *float64, astride int, b *float64, ldb, kn int)

// rowAccAVX computes o[j] += Σ_k a[k·astride]·b[k·ldb+j] for every
// column j of o, k ascending from 0 to kn-1, skipping exact-zero a
// entries — per output element the same multiplies and adds, in the
// same order, as the portable axpyRow loops. Columns go to the kernels
// in 24-wide blocks, then at most one 16-, 8- and 4-wide block each;
// the last 0–3 columns run a scalar loop in the same k order. A 24-wide
// block keeps six independent accumulator chains in flight, so a row
// of the served network's 24-wide layers (embed, Q/K/V, Wo) and each
// half of its 48-wide hidden layer takes a single k pass. The slicing
// below bounds every element the kernels touch, so a short tensor
// panics here with a Go bounds error rather than letting assembly read
// past its storage.
func rowAccAVX(o, a []float64, astride int, b []float64, ldb, kn int) {
	n := len(o)
	if kn == 0 || n == 0 {
		return
	}
	a = a[:(kn-1)*astride+1]
	b = b[:(kn-1)*ldb+n]
	j := 0
	for ; j+24 <= n; j += 24 {
		accBlock24(&o[j], &a[0], astride, &b[j], ldb, kn)
	}
	if j+16 <= n {
		accBlock16(&o[j], &a[0], astride, &b[j], ldb, kn)
		j += 16
	}
	if j+8 <= n {
		accBlock8(&o[j], &a[0], astride, &b[j], ldb, kn)
		j += 8
	}
	if j+4 <= n {
		accBlock4(&o[j], &a[0], astride, &b[j], ldb, kn)
		j += 4
	}
	for ; j < n; j++ {
		s := o[j]
		for k := 0; k < kn; k++ {
			if av := a[k*astride]; av != 0 {
				s += av * b[k*ldb+j]
			}
		}
		o[j] = s
	}
}
