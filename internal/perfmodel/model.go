// Package perfmodel is the analytic performance model that projects
// the reproduction's measured small-scale behaviour to the full New
// Generation Sunway machine — the only way to reproduce the paper's
// full-scale experiments (96,000 nodes / 37M cores) without the
// hardware.
//
// It models a MoE transformer training step as compute (GEMM-
// dominated, priced against per-node peak with an efficiency factor)
// plus communication (MoE all-to-all dispatch/combine and gradient
// all-reduce, priced with the same α–β hierarchy simnet uses), and
// checks the per-node memory budget that determines whether a given
// parameter count fits at all.
package perfmodel

import "fmt"

// ModelSpec describes a MoE-GPT architecture analytically.
type ModelSpec struct {
	Name      string
	Vocab     int
	Dim       int
	Heads     int
	Layers    int
	SeqLen    int
	FFNHidden int

	// MoE shape: every MoEEvery-th block replaces its FFN with an
	// expert pool of NumExperts FFNs of width MoEHidden; 0 disables.
	NumExperts int
	MoEHidden  int
	MoEEvery   int
	TopK       int
}

// Validate checks the specification.
func (s ModelSpec) Validate() error {
	if s.Vocab <= 0 || s.Dim <= 0 || s.Layers <= 0 || s.SeqLen <= 0 || s.FFNHidden <= 0 {
		return fmt.Errorf("perfmodel: non-positive spec %+v", s)
	}
	if s.MoEEvery > 0 && (s.NumExperts <= 0 || s.MoEHidden <= 0 || s.TopK <= 0) {
		return fmt.Errorf("perfmodel: MoE enabled but incomplete: %+v", s)
	}
	return nil
}

// MoELayers returns how many blocks carry an expert pool.
func (s ModelSpec) MoELayers() int {
	if s.MoEEvery <= 0 {
		return 0
	}
	n := 0
	for b := 0; b < s.Layers; b++ {
		if b%s.MoEEvery == 0 {
			n++
		}
	}
	return n
}

// linearParams counts a Linear(in->out) with bias.
func linearParams(in, out int) int64 { return int64(in)*int64(out) + int64(out) }

// expertParams counts one FFN expert (up + down projections).
func (s ModelSpec) expertParams() int64 {
	return linearParams(s.Dim, s.MoEHidden) + linearParams(s.MoEHidden, s.Dim)
}

// DenseParams counts every replicated parameter: embeddings,
// attention, layer norms, dense FFNs, gates, head. The formulas
// mirror nn.NewGPT exactly and are verified against it in tests.
func (s ModelSpec) DenseParams() int64 {
	d := int64(s.Dim)
	p := int64(s.Vocab)*d + int64(s.SeqLen)*d // embeddings
	for b := 0; b < s.Layers; b++ {
		p += 2 * (2 * d)                    // two layer norms (gamma+beta)
		p += 4 * linearParams(s.Dim, s.Dim) // q,k,v,o
		if s.MoEEvery > 0 && b%s.MoEEvery == 0 {
			p += int64(s.Dim) * int64(s.NumExperts) // gate projection (no bias)
		} else {
			p += linearParams(s.Dim, s.FFNHidden) + linearParams(s.FFNHidden, s.Dim)
		}
	}
	p += 2 * d                         // final layer norm
	p += int64(s.Dim) * int64(s.Vocab) // LM head (no bias)
	return p
}

// GateParams counts the gate projections, the one dense component
// that scales with the expert count (d·E per MoE layer). At 96,000
// experts it dominates replicated memory, which is why the memory
// model shards its optimizer state.
func (s ModelSpec) GateParams() int64 {
	if s.MoEEvery <= 0 {
		return 0
	}
	return int64(s.MoELayers()) * int64(s.Dim) * int64(s.NumExperts)
}

// ExpertParamsTotal counts all expert parameters across all MoE
// layers — the part of the model that scales to trillions.
func (s ModelSpec) ExpertParamsTotal() int64 {
	return int64(s.MoELayers()) * int64(s.NumExperts) * s.expertParams()
}

// TotalParams is the full model size.
func (s ModelSpec) TotalParams() int64 {
	return s.DenseParams() + s.ExpertParamsTotal()
}

// ActiveParamsPerToken counts the parameters a single token actually
// touches (dense + TopK experts per MoE layer); MoE compute scales
// with this, not with TotalParams.
func (s ModelSpec) ActiveParamsPerToken() int64 {
	active := s.DenseParams()
	if s.MoEEvery > 0 {
		active += int64(s.MoELayers()) * int64(s.TopK) * s.expertParams()
	}
	return active
}

// TokenFlops is the one dense-plus-attention FLOP formula per token:
// perParam FLOPs per active parameter (2 for a forward pass, 6 for
// forward plus backward) plus the attention quadratic term at the
// same pass multiplier, 2·perParam·layers·seqLen·dim.
func TokenFlops(perParam, active float64, layers, seqLen, dim int) float64 {
	return perParam*active + 2*perParam*float64(layers)*float64(seqLen)*float64(dim)
}

// FlopsPerToken estimates forward+backward FLOPs per token: the
// standard 6·N_active (2 for forward, 4 for backward) plus the
// attention quadratic term 12·L·S·d.
func (s ModelSpec) FlopsPerToken() float64 {
	return TokenFlops(6, float64(s.ActiveParamsPerToken()), s.Layers, s.SeqLen, s.Dim)
}

// String summarizes the spec.
func (s ModelSpec) String() string {
	return fmt.Sprintf("%s[d=%d L=%d E=%dx%d params=%.3gT active=%.3gB]",
		s.Name, s.Dim, s.Layers, s.MoELayers(), s.NumExperts,
		float64(s.TotalParams())/1e12, float64(s.ActiveParamsPerToken())/1e9)
}

// BrainScaleSpecs returns the three model configurations
// reconstructed from the paper's headline numbers: BaGuaLu trained
// MoE models of 1.93T, 14.5T, and 174T parameters. The layer widths
// are plausible M6/CPM-style choices tuned so the analytic totals
// land on the reported counts; the paper's exact hyperparameters are
// not public in the material available to this reproduction.
func BrainScaleSpecs() []ModelSpec {
	return []ModelSpec{
		{
			Name: "BaGuaLu-1.93T", Vocab: 50304, Dim: 2048, Heads: 16,
			Layers: 24, SeqLen: 1024, FFNHidden: 8192,
			NumExperts: 2400, MoEHidden: 8192, MoEEvery: 1, TopK: 1,
		},
		{
			Name: "BaGuaLu-14.5T", Vocab: 50304, Dim: 2048, Heads: 16,
			Layers: 24, SeqLen: 1024, FFNHidden: 8192,
			NumExperts: 18000, MoEHidden: 8192, MoEEvery: 1, TopK: 1,
		},
		{
			// One expert per node on the 96,000-node machine, the
			// arrangement the paper's scale dictates: EP cannot
			// exceed the per-layer expert count.
			Name: "BaGuaLu-174T", Vocab: 50304, Dim: 4096, Heads: 32,
			Layers: 48, SeqLen: 1024, FFNHidden: 16384,
			NumExperts: 96000, MoEHidden: 9216, MoEEvery: 2, TopK: 1,
		},
	}
}
