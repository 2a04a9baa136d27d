package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// loadTarget is the parameter set the Load tests restore into: a 3×2
// linear layer followed by a width-2 layer norm, so "fc.weight" is
// 3×2 and three parameters come after it.
func loadTarget() []*Param {
	rng := rand.New(rand.NewSource(40))
	return append(NewLinear("fc", 3, 2, rng).Params(), NewLayerNorm("ln", 2).Params()...)
}

// encodeSnapshot gob-encodes s as Save would.
func encodeSnapshot(t testing.TB, s snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validSnapshot returns a snapshot every loadTarget parameter accepts,
// with values unlike the target's own.
func validSnapshot() snapshot {
	s := snapshot{Params: map[string]snapParam{}}
	for i, p := range loadTarget() {
		data := make([]float64, len(p.W.Data))
		for j := range data {
			data[j] = float64(100*i + j + 1)
		}
		s.Params[p.Name] = snapParam{Rows: p.W.Rows, Cols: p.W.Cols, Data: data}
	}
	return s
}

// paramBits captures every parameter's weight bits and update version.
func paramBits(params []*Param) ([][]uint64, []uint64) {
	bits := make([][]uint64, len(params))
	versions := make([]uint64, len(params))
	for i, p := range params {
		for _, v := range p.W.Data {
			bits[i] = append(bits[i], math.Float64bits(v))
		}
		versions[i] = p.Version()
	}
	return bits, versions
}

// checkLoad asserts Load's all-or-nothing property for one input:
// either it returns nil and every parameter equals the snapshot
// exactly, or it returns an error and every parameter — values and
// version — is as it was before the call.
func checkLoad(t *testing.T, data []byte) error {
	t.Helper()
	params := loadTarget()
	bits, versions := paramBits(params)
	err := Load(bytes.NewReader(data), params)
	if err != nil {
		gotBits, gotVersions := paramBits(params)
		for i, p := range params {
			if gotVersions[i] != versions[i] {
				t.Fatalf("failed Load (%v) bumped %s's version", err, p.Name)
			}
			for j := range bits[i] {
				if gotBits[i][j] != bits[i][j] {
					t.Fatalf("failed Load (%v) changed %s[%d]", err, p.Name, j)
				}
			}
		}
		return err
	}
	var s snapshot
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); derr != nil {
		t.Fatalf("Load accepted input the decoder rejects: %v", derr)
	}
	for _, p := range params {
		sp := s.Params[p.Name]
		if len(sp.Data) != len(p.W.Data) {
			t.Fatalf("Load accepted %s with %d values for %d weights", p.Name, len(sp.Data), len(p.W.Data))
		}
		for j, v := range p.W.Data {
			if math.Float64bits(v) != math.Float64bits(sp.Data[j]) {
				t.Fatalf("loaded %s[%d] = %v, snapshot has %v", p.Name, j, v, sp.Data[j])
			}
		}
	}
	return nil
}

// TestLoadIsAllOrNothing covers the malformed snapshots Load must
// refuse without touching any parameter: too few or too many values for
// the declared shape, and a parameter missing after ones that would
// load.
func TestLoadIsAllOrNothing(t *testing.T) {
	if err := checkLoad(t, encodeSnapshot(t, validSnapshot())); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	cases := map[string]func(s snapshot){
		"short data": func(s snapshot) {
			s.Params["fc.weight"] = snapParam{Rows: 3, Cols: 2, Data: []float64{1}}
		},
		"extra data": func(s snapshot) {
			sp := s.Params["fc.weight"]
			sp.Data = append(sp.Data, 7)
			s.Params["fc.weight"] = sp
		},
		"wrong shape": func(s snapshot) {
			s.Params["fc.weight"] = snapParam{Rows: 2, Cols: 3, Data: make([]float64, 6)}
		},
		"missing later param": func(s snapshot) { delete(s.Params, "ln.bias") },
	}
	for name, corrupt := range cases {
		s := validSnapshot()
		corrupt(s)
		if err := checkLoad(t, encodeSnapshot(t, s)); err == nil {
			t.Errorf("%s: Load returned nil", name)
		}
	}
	data := encodeSnapshot(t, validSnapshot())
	if err := checkLoad(t, data[:len(data)/2]); err == nil {
		t.Error("truncated gob: Load returned nil")
	}
}

// FuzzLoad feeds arbitrary bytes to Load and checks the all-or-nothing
// property on every input. The seed corpus in testdata/fuzz/FuzzLoad
// holds a valid snapshot, one with too few values, one with a wrong
// shape and a truncated gob stream.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
	})
}
