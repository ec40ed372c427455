package moe_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// The single-rank MoE layer (moe.NewLocalMoE) must keep its numerics
// bit for bit. TestSingleRankMoEGoldenDigests pins every float it
// produces — forward output, input gradient, every parameter
// gradient, the auxiliary loss and the inference output — over a set
// of routing configurations, plus the first training losses of the
// BenchmarkTrainStep model, against digests stored in testdata.

const singleRankDigestFile = "testdata/single_rank_moe_digests.txt"

// digestBits is FNV-64a over the float32 bit patterns of xs.
func digestBits(xs ...float32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		u := math.Float32bits(x)
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// singleRankConfigs covers the routing disciplines of the gate.
func singleRankConfigs() []struct {
	name string
	cfg  moe.GateConfig
} {
	const d, e = 8, 4
	return []struct {
		name string
		cfg  moe.GateConfig
	}{
		{"topk1", moe.GateConfig{Dim: d, NumExperts: e, TopK: 1, AuxLossWeight: 0.01}},
		{"topk2-dropless", moe.GateConfig{Dim: d, NumExperts: e, TopK: 2, AuxLossWeight: 0.01}},
		{"topk2-capacity-drop", moe.GateConfig{Dim: d, NumExperts: e, TopK: 2, Mode: moe.CapacityDrop, CapacityFactor: 0.75, AuxLossWeight: 0.01}},
		{"expert-choice", moe.GateConfig{Dim: d, NumExperts: e, TopK: 2, Mode: moe.ExpertChoice, CapacityFactor: 1}},
		{"zloss", moe.GateConfig{Dim: d, NumExperts: e, TopK: 2, AuxLossWeight: 0.01, ZLossWeight: 0.1}},
	}
}

// singleRankDigests returns one "name digest" line per pinned output.
func singleRankDigests(t *testing.T) []string {
	var lines []string
	add := func(name string, xs ...float32) {
		lines = append(lines, fmt.Sprintf("%s %016x", name, digestBits(xs...)))
	}
	for ci, c := range singleRankConfigs() {
		m := moe.NewLocalMoE("moe", tensor.NewRNG(uint64(300+ci)), c.cfg, 16)
		r := tensor.NewRNG(uint64(400 + ci))
		// Two steps with different batch sizes, with an SGD update in
		// between, so reused buffers are resized and step two sees
		// new weights.
		for step, tokens := range []int{12, 9} {
			x := tensor.Randn(r, 1, tokens, c.cfg.Dim)
			dout := tensor.Randn(r, 1, tokens, c.cfg.Dim)
			nn.ZeroGrads(m.Params())
			out := m.Forward(x)
			aux := m.AuxLoss()
			if c.cfg.Mode == moe.CapacityDrop && m.LastRouting().Overflow == 0 {
				t.Fatalf("%s step %d: no token dropped; tighten the capacity", c.name, step)
			}
			dx := m.Backward(dout)
			pre := fmt.Sprintf("%s/step%d", c.name, step)
			add(pre+"/out", out.Data...)
			add(pre+"/dx", dx.Data...)
			add(pre+"/aux", aux)
			for _, p := range m.Params() {
				add(pre+"/grad/"+p.Name, p.G.Data...)
			}
			for _, p := range m.Params() {
				tensor.AXPY(-0.1, p.G, p.W)
			}
		}
		add(c.name+"/infer", m.Infer(tensor.Randn(r, 1, 7, c.cfg.Dim)).Data...)
	}

	// The BenchmarkTrainStep model: three training steps of loss,
	// auxiliary loss and gradient norm.
	model := nn.NewGPT(nn.GPTConfig{
		Vocab: 256, Dim: 64, Heads: 4, Layers: 2, SeqLen: 32, FFNHidden: 128,
	}, tensor.NewRNG(17), func(block int, name string, rr *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, rr, moe.GateConfig{
			Dim: 64, NumExperts: 4, TopK: 2, CapacityFactor: 1.5, AuxLossWeight: 0.01,
		}, 128)
	})
	corpus, err := data.NewSynthetic(data.CorpusConfig{
		Vocab: 256, SeqLen: 32, Zipf: 1, Determinism: 0.9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := train.NewTrainer(model, corpus, train.NewAdam(0), train.Config{
		Batch: 8, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		mt := tr.Step()
		add(fmt.Sprintf("train-step/step%d", step), mt.Loss, mt.AuxLoss, mt.GradNorm)
	}
	return lines
}

func TestSingleRankMoEGoldenDigests(t *testing.T) {
	got := strings.Join(singleRankDigests(t), "\n") + "\n"
	want, err := os.ReadFile(singleRankDigestFile)
	if err != nil {
		t.Fatalf("read %s: %v\ncomputed digests:\n%s", singleRankDigestFile, err, got)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("digest line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d digest lines, want %d", len(gl), len(wl))
	}
}
