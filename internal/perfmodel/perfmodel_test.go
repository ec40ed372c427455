package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/moe"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

func tinySpec() ModelSpec {
	return ModelSpec{
		Name: "tiny", Vocab: 32, Dim: 8, Heads: 2, Layers: 2, SeqLen: 4,
		FFNHidden: 16, NumExperts: 4, MoEHidden: 16, MoEEvery: 1, TopK: 2,
	}
}

// TestDenseParamsMatchesRealModel pins the analytic formula to the
// actual nn.GPT construction: this is what makes the trillion-scale
// projections trustworthy.
func TestParamFormulasMatchRealModel(t *testing.T) {
	spec := tinySpec()

	// Dense-only model.
	denseSpec := spec
	denseSpec.MoEEvery = 0
	r := tensor.NewRNG(1)
	g := nn.NewGPT(nn.GPTConfig{
		Vocab: spec.Vocab, Dim: spec.Dim, Heads: spec.Heads,
		Layers: spec.Layers, SeqLen: spec.SeqLen, FFNHidden: spec.FFNHidden,
	}, r, nil)
	if got, want := int64(g.NumParams()), denseSpec.TotalParams(); got != want {
		t.Fatalf("dense model params %d, formula %d", got, want)
	}

	// MoE model: a single-rank MoE layer in every block.
	r = tensor.NewRNG(2)
	gm := nn.NewGPT(nn.GPTConfig{
		Vocab: spec.Vocab, Dim: spec.Dim, Heads: spec.Heads,
		Layers: spec.Layers, SeqLen: spec.SeqLen, FFNHidden: spec.FFNHidden,
	}, r, func(block int, name string, rr *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, rr, moe.GateConfig{
			Dim: spec.Dim, NumExperts: spec.NumExperts, TopK: spec.TopK,
			CapacityFactor: 1,
		}, spec.MoEHidden)
	})
	if got, want := int64(gm.NumParams()), spec.TotalParams(); got != want {
		t.Fatalf("MoE model params %d, formula %d", got, want)
	}
}

func TestActiveParamsLessThanTotal(t *testing.T) {
	spec := tinySpec()
	if spec.ActiveParamsPerToken() >= spec.TotalParams() {
		t.Fatal("active params must be below total for E > TopK")
	}
	dense := spec
	dense.MoEEvery = 0
	if dense.ActiveParamsPerToken() != dense.TotalParams() {
		t.Fatal("dense model must activate everything")
	}
}

func TestBrainScaleSpecsHitHeadlineCounts(t *testing.T) {
	specs := BrainScaleSpecs()
	targets := []float64{1.93e12, 14.5e12, 174e12}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		got := float64(s.TotalParams())
		if math.Abs(got-targets[i])/targets[i] > 0.10 {
			t.Errorf("%s: %0.3g params, target %0.3g (off by %.1f%%)",
				s.Name, got, targets[i], 100*math.Abs(got-targets[i])/targets[i])
		}
	}
}

func fullDeployment(a2a A2AStrategy) Deployment {
	// The paper's headline deployment: one rank per node driving all
	// six core groups, experts sharded over the whole machine.
	m := sunway.NewGenerationSunway()
	return Deployment{
		Machine:        m,
		RanksPerNode:   1,
		DataParallel:   1,
		ExpertParallel: m.Nodes(),
		BatchPerRank:   4,
		Precision:      sunway.Mixed,
		Efficiency:     0.35,
		A2A:            a2a,
		ZeRO:           true,
	}
}

// computeTime is a prediction's full (pre-overlap) compute: dense plus
// expert.
func computeTime(p StepPrediction) float64 { return p.DenseCompute + p.ExpertCompute }

func TestProjectFullMachine174T(t *testing.T) {
	spec := BrainScaleSpecs()[2] // 96,000 experts: one per rank
	d := fullDeployment(A2AHierarchical)
	rep, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Fits {
		t.Fatalf("174T config does not fit: %.1f GiB/node", rep.Mem.TotalGiB)
	}
	// The paper's headline is ~1.18 EFLOPS mixed precision; the
	// reproduction should land in the same order of magnitude.
	if rep.SustainedFlops < 0.2e18 || rep.SustainedFlops > 5e18 {
		t.Fatalf("sustained FLOPS %.3g not in EFLOPS range", rep.SustainedFlops)
	}
	if rep.PeakFraction <= 0 || rep.PeakFraction > 1 {
		t.Fatalf("peak fraction %v out of range", rep.PeakFraction)
	}
	if rep.StepTime <= 0 || rep.TokensPerSec <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
}

func TestHierarchicalA2ABeatsFlatAtScale(t *testing.T) {
	spec := BrainScaleSpecs()[0]
	dFlat := fullDeployment(A2AFlat)
	dHier := fullDeployment(A2AHierarchical)
	spec.NumExperts = dFlat.ExpertParallel
	rf, err := dFlat.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := dHier.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if rh.A2A >= rf.A2A {
		t.Fatalf("hierarchical a2a %.3g !< flat %.3g at full scale", rh.A2A, rf.A2A)
	}
}

func TestMemoryGateRejectsOversizedModel(t *testing.T) {
	// 174T parameters on a tiny machine cannot fit.
	spec := BrainScaleSpecs()[2]
	m := sunway.TestMachine(1, 4)
	d := Deployment{
		Machine: m, RanksPerNode: 1, DataParallel: 1, ExpertParallel: 4,
		BatchPerRank: 1, Precision: sunway.Mixed, Efficiency: 0.35,
	}
	spec.NumExperts = 4 * 1000 // divisible by EP, still huge
	rep, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mem.Fits {
		t.Fatalf("trillion-parameter model reported as fitting on 4 nodes (%.1f GiB)", rep.Mem.TotalGiB)
	}
}

func TestValidationErrors(t *testing.T) {
	d := fullDeployment(A2AFlat)
	d.Efficiency = 0
	if _, err := d.PredictStep(tinySpec(), FaultModel{}); err == nil {
		t.Fatal("zero efficiency accepted")
	}
	d = fullDeployment(A2AFlat)
	d.DataParallel = 7 // grid mismatch
	if _, err := d.PredictStep(tinySpec(), FaultModel{}); err == nil {
		t.Fatal("grid mismatch accepted")
	}
	d = fullDeployment(A2AFlat)
	spec := tinySpec()
	spec.NumExperts = 7 // not divisible by EP
	if _, err := d.PredictStep(spec, FaultModel{}); err == nil {
		t.Fatal("indivisible experts accepted")
	}
}

func TestComputeScalesWithBatch(t *testing.T) {
	m := sunway.TestMachine(2, 8)
	base := Deployment{
		Machine: m, RanksPerNode: 1, DataParallel: 4, ExpertParallel: 4,
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.5,
	}
	spec := tinySpec()
	r1, err := base.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	base.BatchPerRank = 4
	r2, err := base.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(computeTime(r2)/computeTime(r1)-2) > 1e-9 {
		t.Fatalf("compute time did not double: %v vs %v", computeTime(r1), computeTime(r2))
	}
}

func TestMixedPrecisionFasterThanFP32(t *testing.T) {
	m := sunway.TestMachine(4, 16)
	spec := tinySpec()
	d := Deployment{
		Machine: m, RanksPerNode: 1, DataParallel: 16, ExpertParallel: 4,
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
	}
	r32, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	d.Precision = sunway.Mixed
	rmx, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if rmx.StepTime >= r32.StepTime {
		t.Fatalf("mixed %.3g !< fp32 %.3g", rmx.StepTime, r32.StepTime)
	}
}

func TestWeakScalingImprovesThroughput(t *testing.T) {
	// Doubling the machine (at fixed per-rank batch) must increase
	// aggregate tokens/s.
	spec := tinySpec()
	mk := func(nodes int) StepPrediction {
		m := sunway.TestMachine(nodes/16, 16)
		d := Deployment{
			Machine: m, RanksPerNode: 1, DataParallel: nodes / 4, ExpertParallel: 4,
			BatchPerRank: 2, Precision: sunway.Mixed, Efficiency: 0.4,
			A2A: A2AHierarchical,
		}
		r, err := d.PredictStep(spec, FaultModel{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	small := mk(32)
	big := mk(128)
	if big.TokensPerSec <= small.TokensPerSec {
		t.Fatalf("weak scaling regressed: %v -> %v tokens/s", small.TokensPerSec, big.TokensPerSec)
	}
}

func TestSweepExpertsMoEScalingClaim(t *testing.T) {
	// MoE's core promise: 16x more experts => ~16x more parameters at
	// nearly flat compute time.
	m := sunway.TestMachine(4, 16)
	d := Deployment{
		Machine: m, RanksPerNode: 1, DataParallel: 4, ExpertParallel: 16,
		BatchPerRank: 2, Precision: sunway.Mixed, Efficiency: 0.4,
		A2A: A2AHierarchical, ZeRO: true,
	}
	var params, compute []float64
	for _, e := range []int{16, 64, 256} {
		spec := tinySpec()
		spec.NumExperts = e
		p, err := d.PredictStep(spec, FaultModel{})
		if err != nil {
			t.Fatalf("experts=%d: %v", e, err)
		}
		params = append(params, float64(spec.TotalParams()))
		compute = append(compute, computeTime(p))
	}
	paramGrowth := params[2] / params[0]
	computeGrowth := compute[2] / compute[0]
	if paramGrowth < 8 {
		t.Fatalf("param growth %v too small for 16x experts", paramGrowth)
	}
	// Compute grows only via the gate (d x E); must stay well below
	// the parameter growth.
	if computeGrowth > paramGrowth/2 {
		t.Fatalf("compute grew %vx vs params %vx — MoE claim violated", computeGrowth, paramGrowth)
	}
}

func TestSweepBatchAmortizesLatency(t *testing.T) {
	m := sunway.TestMachine(4, 16)
	d := Deployment{
		Machine: m, RanksPerNode: 1, DataParallel: 4, ExpertParallel: 16,
		BatchPerRank: 1, Precision: sunway.Mixed, Efficiency: 0.4,
		A2A: A2AHierarchical, ZeRO: true,
	}
	spec := tinySpec()
	spec.NumExperts = 16
	var reports []StepPrediction
	for _, b := range []int{1, 4, 16, 64} {
		dd := d
		dd.BatchPerRank = b
		p, err := dd.PredictStep(spec, FaultModel{})
		if err != nil {
			t.Fatalf("batch=%d: %v", b, err)
		}
		reports = append(reports, p)
	}
	// Tokens/s must improve with batch (latency amortized), and
	// compute fraction must rise monotonically.
	for i := 1; i < len(reports); i++ {
		if reports[i].TokensPerSec <= reports[i-1].TokensPerSec {
			t.Fatalf("batch %d did not improve throughput", i)
		}
		fPrev := computeTime(reports[i-1]) / reports[i-1].StepTime
		fCur := computeTime(reports[i]) / reports[i].StepTime
		if fCur < fPrev-1e-9 {
			t.Fatalf("compute fraction regressed: %v -> %v", fPrev, fCur)
		}
	}
}
