package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mlcr/internal/drl"
	"mlcr/internal/nn"
)

// servedShapeGolden is the sha256 of servedShapeDigest's stream. It pins
// the exact bits of the served-shape forward pass and of DQN training,
// so any change to the order or rounding of a reduction anywhere in the
// network — kernel, scores, softmax, LayerNorm, attention heads,
// backward or optimizer — shows up here, on the portable path as well
// as on the AVX kernel. Regenerate it only for a change that is meant
// to alter the numbers.
const servedShapeGolden = "bd6cc1ead313aeeda328d36d2ae7e0f265fa80ba9a7e904c1e377ab5cd703fbb"

// servedShapeDigest hashes the Float64bits of everything a served-shape
// agent (four pool slots: 6 tokens × 39 features, 5 actions, Dim 24,
// 2 heads, Hidden 48) computes over dense and sparse featurized states:
// Q-values before training, the TD error and a probe's Q-values after
// each of several TrainSteps, and every online weight at the end.
func servedShapeDigest() string {
	cfg := drl.QConfig{Tokens: 6, Width: 39, Actions: 5, Dim: 24, Heads: 2, Hidden: 48}
	agent := drl.NewAgent(drl.AgentConfig{Q: cfg, BatchSize: 8, TargetSync: 3}, 11)
	rng := rand.New(rand.NewSource(12))
	dense := func() *nn.Tensor { return nn.NewTensor(cfg.Tokens, cfg.Width).Randn(rng, 1) }
	// A featurized state is sparse: a cluster and a function token with
	// a one-hot kind flag and a few saturated scalars, candidate tokens
	// like them, and all-zero rows for empty slots.
	sparse := func() *nn.Tensor {
		x := nn.NewTensor(cfg.Tokens, cfg.Width)
		filled := 2 + rng.Intn(cfg.Tokens-1)
		for r := 0; r < filled; r++ {
			row := x.Row(r)
			row[min(r, 2)] = 1
			for k := 0; k < 5; k++ {
				row[3+rng.Intn(len(row)-3)] = rng.Float64()
			}
		}
		return x
	}
	var states []*nn.Tensor
	for i := 0; i < 12; i++ {
		states = append(states, sparse(), dense())
	}

	h := sha256.New()
	for _, s := range states {
		hashFloats(h, agent.Online().ForwardInto(nil, s).Data)
	}
	mask := []bool{true, false, true, true, true}
	for i := 0; i < 32; i++ {
		agent.Observe(drl.Transition{
			State: states[i%len(states)], Action: i % cfg.Actions, Reward: rng.Float64() - 0.5,
			Next: states[(i+5)%len(states)], NextMask: mask, Done: i%5 == 4,
		})
	}
	for step := 0; step < 6; step++ {
		hashFloats(h, []float64{agent.TrainStep()})
		hashFloats(h, agent.Online().ForwardInto(nil, states[step]).Data)
	}
	for _, p := range agent.Online().Params() {
		hashFloats(h, p.W.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// TestServedShapeGoldenPin checks the served-shape digest against the
// pinned constant on the portable path and, where the CPU has it, on
// the AVX kernel. Unlike TestAgentStepBitIdenticalWithoutAVX, which
// compares the two paths of the current tree with each other, this
// catches a change that moves both of them. The pinned bits are amd64
// bits: Go fuses x*y+z into one FMA on arm64 and other GOARCHes, which
// rounds once instead of twice.
func TestServedShapeGoldenPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pinned digest is amd64 arithmetic; %s fuses multiply-adds", runtime.GOARCH)
	}
	was := nn.SetAVX(false)
	defer nn.SetAVX(was)
	modes := []bool{false}
	if was {
		modes = append(modes, true)
	}
	for _, avx := range modes {
		nn.SetAVX(avx)
		if got := servedShapeDigest(); got != servedShapeGolden {
			t.Errorf("AVX %v: served-shape digest %s, pinned %s", avx, got, servedShapeGolden)
		}
	}
}
