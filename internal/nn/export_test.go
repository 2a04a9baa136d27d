package nn

// SetAVX switches the AVX matmul kernel on or off for the tests and
// returns the previous setting. Turn it on only where it was on at
// init: on a CPU without AVX the kernel must never run.
func SetAVX(on bool) (was bool) {
	was, useAVX = useAVX, on
	return was
}
