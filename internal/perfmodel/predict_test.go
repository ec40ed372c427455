package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/sunway"
)

// A fault-free prediction pays no checkpoint or rework: goodput 1 and
// the effective step time equals the visible one.
func TestPredictStepFaultFreeGoodput(t *testing.T) {
	d := validDeployment()
	d.A2A = A2AHierarchical
	d.ZeRO = true
	p, err := d.PredictStep(tinySpec(), FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Goodput != 1 || p.EffStepTime != p.StepTime || p.CkptOverhead != 0 {
		t.Fatalf("fault-free prediction has goodput %v, eff step %v vs %v", p.Goodput, p.EffStepTime, p.StepTime)
	}
}

func TestFP16WireCutsA2ABytesAndTime(t *testing.T) {
	// A deployment whose expert-parallel group spans supernodes must
	// get cheaper (and lighter on the wire) with the FP16 codec.
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 1,
		DataParallel: 1, ExpertParallel: 8,
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
	}
	spec := tinySpec()
	spec.NumExperts = 8
	fp32, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	d.WireFP16 = true
	fp16, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if fp16.A2ABytes >= fp32.A2ABytes {
		t.Fatalf("fp16 wire bytes %v !< fp32 %v", fp16.A2ABytes, fp32.A2ABytes)
	}
	if fp16.A2A >= fp32.A2A {
		t.Fatalf("fp16 a2a time %v !< fp32 %v", fp16.A2A, fp32.A2A)
	}
	// Intra-supernode-only groups see no codec effect.
	dIntra := d
	dIntra.Machine = sunway.TestMachine(1, 8)
	intra16, err := dIntra.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	dIntra.WireFP16 = false
	intra32, err := dIntra.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if intra16.A2ABytes != intra32.A2ABytes {
		t.Fatalf("codec changed intra-supernode bytes: %v vs %v", intra16.A2ABytes, intra32.A2ABytes)
	}
}

func TestOverlapA2AHidesExpertCompute(t *testing.T) {
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 1,
		DataParallel: 1, ExpertParallel: 8,
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
	}
	spec := tinySpec()
	spec.NumExperts = 8
	blocking, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	d.OverlapA2A = true
	overlap, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if overlap.StepTime >= blocking.StepTime {
		t.Fatalf("overlap step %v !< blocking %v", overlap.StepTime, blocking.StepTime)
	}
	if want := math.Max(overlap.A2A, overlap.ExpertCompute); overlap.MoEPhase != want {
		t.Fatalf("overlap MoE phase %v != max(a2a, expert) %v", overlap.MoEPhase, want)
	}
	if want := blocking.A2A + blocking.ExpertCompute; blocking.MoEPhase != want {
		t.Fatalf("blocking MoE phase %v != a2a+expert %v", blocking.MoEPhase, want)
	}
}

func TestGoodputHasInteriorOptimumOverInterval(t *testing.T) {
	// Checkpointing too often pays the writer; too rarely pays rework.
	// The classic Young–Daly trade must produce an interior optimum.
	d := fullDeployment(A2AHierarchical)
	spec := BrainScaleSpecs()[0]
	spec.NumExperts = d.ExpertParallel
	intervals := []int{1, 16, 256, 4096}
	good := make([]float64, len(intervals))
	for i, iv := range intervals {
		p, err := d.PredictStep(spec, FaultModel{MTBFSteps: 400, CkptEverySteps: iv, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if p.Goodput <= 0 || p.Goodput >= 1 {
			t.Fatalf("interval %d: goodput %v out of (0,1)", iv, p.Goodput)
		}
		if p.EffStepTime <= p.StepTime {
			t.Fatalf("interval %d: effective step %v !> fault-free %v", iv, p.EffStepTime, p.StepTime)
		}
		good[i] = p.Goodput
	}
	best := 0
	for i, g := range good {
		if g > good[best] {
			best = i
		}
	}
	if best == 0 || best == len(good)-1 {
		t.Fatalf("goodput monotone over intervals %v: %v — no interior optimum", intervals, good)
	}
}

func TestGoodputDegradesWithShorterMTBF(t *testing.T) {
	d := fullDeployment(A2AHierarchical)
	spec := BrainScaleSpecs()[0]
	spec.NumExperts = d.ExpertParallel
	var prev float64 = -1
	for _, mtbf := range []float64{50, 500, 5000} {
		p, err := d.PredictStep(spec, FaultModel{MTBFSteps: mtbf, CkptEverySteps: 64, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if p.Goodput <= prev {
			t.Fatalf("goodput %v not increasing with MTBF %v", p.Goodput, mtbf)
		}
		prev = p.Goodput
	}
}

func TestSyncBytesMatchRingFormula(t *testing.T) {
	d := validDeployment()
	spec := tinySpec()
	p, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := d.Ranks()
	want := 2 * float64(ranks-1) / float64(ranks) * float64(spec.DenseParams()) * 4
	want += 2 * float64(d.DataParallel-1) / float64(d.DataParallel) *
		float64(spec.ExpertParamsTotal()/int64(d.ExpertParallel)) * 4
	if math.Abs(p.SyncBytes-want) > 1e-6*want {
		t.Fatalf("sync bytes %v, want %v", p.SyncBytes, want)
	}
}
