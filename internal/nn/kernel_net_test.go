package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"mlcr/internal/drl"
	"mlcr/internal/nn"
)

// agentRun is what one forward-then-train pass observably produces.
type agentRun struct {
	before, after []float64   // Q-values of the probe state around the step
	weights       [][]float64 // every online parameter after the step
}

// runAgentStep builds a served-shape agent (four pool slots: six tokens
// of featurizer width, five actions), evaluates a sparse featurized
// state, takes one TrainStep over sparse transitions and evaluates the
// state again.
func runAgentStep() agentRun {
	feat := drl.Featurizer{Slots: 4}
	agent := drl.NewAgent(drl.AgentConfig{
		Q:         drl.QConfig{Tokens: feat.Tokens(), Width: feat.Width(), Actions: feat.Actions(), Dim: 24, Heads: 2, Hidden: 48},
		BatchSize: 8,
	}, 7)
	rng := rand.New(rand.NewSource(8))
	// A featurized state is sparse: a handful of one-hot and scalar
	// features per token, the rest exact zeros.
	sparse := func() *nn.Tensor {
		x := nn.NewTensor(feat.Tokens(), feat.Width())
		for r := 0; r < x.Rows; r++ {
			row := x.Row(r)
			for k := 0; k < 4; k++ {
				row[rng.Intn(len(row))] = rng.Float64()
			}
		}
		return x
	}
	mask := []bool{true, true, false, true, true}
	probe := sparse()
	var run agentRun
	run.before = agent.Online().ForwardInto(nil, probe).Data
	for i := 0; i < 16; i++ {
		agent.Observe(drl.Transition{State: sparse(), Action: i % 5, Reward: rng.Float64(), Next: sparse(), NextMask: mask, Done: i%4 == 3})
	}
	agent.TrainStep()
	run.after = agent.Online().ForwardInto(nil, probe).Data
	for _, p := range agent.Online().Params() {
		run.weights = append(run.weights, append([]float64(nil), p.W.Data...))
	}
	return run
}

// TestAgentStepBitIdenticalWithoutAVX runs the same forward pass and
// DQN update with the AVX kernel on and off: every Q-value and every
// weight after the step must carry the same bits.
func TestAgentStepBitIdenticalWithoutAVX(t *testing.T) {
	was := nn.SetAVX(false)
	defer nn.SetAVX(was)
	if !was {
		t.Skip("no AVX kernel on this CPU")
	}
	ref := runAgentStep()
	nn.SetAVX(true)
	simd := runAgentStep()

	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v with AVX, %v without", what, i, got[i], want[i])
			}
		}
	}
	same("Q before step", simd.before, ref.before)
	same("Q after step", simd.after, ref.after)
	for i := range ref.weights {
		same("param", simd.weights[i], ref.weights[i])
	}
}
