package train

import (
	"fmt"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// AuxLossLayer is implemented by MoE layers that contribute an
// auxiliary load-balancing loss.
type AuxLossLayer interface {
	AuxLoss() float32
	LastRouting() *moe.Routing
}

// CommReporter is implemented by layers that account their wire
// traffic and exchange-phase time (the distributed MoE layer). Both
// methods return cumulative counters; the trainer snapshots them
// around each step and reports the deltas in Metrics.
type CommReporter interface {
	WireStats() mpi.WireStats
	PhaseTiming() moe.Timing
	Comm() *mpi.Comm
}

// Config drives a single-rank training run.
type Config struct {
	Batch     int
	Precision sunway.Precision
	Schedule  Schedule
	ClipNorm  float32 // 0 disables clipping

	// Accum is the number of micro-batches whose gradients are
	// accumulated before one optimizer step (gradient accumulation,
	// how the paper reaches machine-scale global batches without
	// machine-scale activation memory). 0 or 1 disables.
	Accum int
}

// Metrics summarizes one training step.
type Metrics struct {
	Step     int
	Loss     float32 // cross-entropy (excludes aux)
	AuxLoss  float32 // summed MoE balance loss
	GradNorm float32
	LR       float32
	Skipped  bool // step dropped by loss-scale overflow
	Overflow int  // MoE capacity overflow count (CapacityDrop mode only; 0 when dropless)
	Scale    float32

	// Wire traffic and exchange-phase time of this step's MoE
	// dispatch/combine exchanges (zero when the model has no
	// CommReporter layers; single-rank MoE layers report their
	// self-copy bytes at simnet.SelfLevel). Wire is the
	// per-step delta of the layers' cumulative counters; Comm is the
	// matching phase breakdown.
	Wire mpi.WireStats
	Comm moe.Timing

	// Fault-tolerance phases, in virtual seconds attributed to this
	// step by the recovery loop: parameter snapshot cost, checkpoint
	// flush stall, and rollback/re-form/restore time after a failure
	// (metrics.PhaseCkptSnapshot etc. in the phase meter).
	CkptSnapshot float64
	CkptFlush    float64
	Recovery     float64

	// Graceful-degradation telemetry attributed to this step by the
	// fault-tolerant loop (metrics.PhaseRetransmit / PhaseMitigation in
	// the phase meter): frames this rank retransmitted, the virtual
	// seconds its sends spent in ack timeouts and backoff, the virtual
	// seconds spent resharding experts away from degraded ranks, and
	// the number of world ranks currently classified degraded.
	Retransmits   int64
	RetransmitSim float64
	MitigationSim float64
	DegradedRanks int
}

// Trainer runs synchronous next-token pretraining of a GPT model on a
// synthetic corpus, with the configured precision policy. It is the
// single-rank engine the parallel package replicates.
type Trainer struct {
	Model  *nn.GPT
	Corpus *data.Corpus
	Opt    Optimizer
	Cfg    Config

	MP     *MixedPrecision
	params []*nn.Param
	loss   nn.SoftmaxCrossEntropy
	step   int

	// PostBackward, when non-nil, runs after gradients are computed
	// and before the optimizer step; the parallel engine injects the
	// gradient all-reduce here.
	PostBackward func(params []*nn.Param)

	// Unpooled disables the step arena. The ambient arena is
	// process-global, so it is only safe when exactly one trainer steps
	// at a time; the parallel engine sets this whenever its
	// communicator spans more than one rank — concurrent rank
	// goroutines would record allocations into each other's arenas, and
	// a rank whose step aborts early (wire fault, peer failure) would
	// drain buffers its neighbours still hold.
	Unpooled bool

	// arena holds the step-scoped tensor working set (activations,
	// attention caches, backward intermediates). Step installs it as
	// the ambient tensor arena and drains it after the optimizer
	// update, recycling the whole forward/backward allocation volume.
	arena *tensor.Arena
}

// NewTrainer wires a model, corpus, and optimizer together.
func NewTrainer(model *nn.GPT, corpus *data.Corpus, opt Optimizer, cfg Config) (*Trainer, error) {
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("train: batch %d", cfg.Batch)
	}
	if corpus.Config().SeqLen != model.Cfg.SeqLen {
		return nil, fmt.Errorf("train: corpus seq len %d != model %d", corpus.Config().SeqLen, model.Cfg.SeqLen)
	}
	if corpus.Config().Vocab != model.Cfg.Vocab {
		return nil, fmt.Errorf("train: corpus vocab %d != model %d", corpus.Config().Vocab, model.Cfg.Vocab)
	}
	if cfg.Schedule == nil {
		cfg.Schedule = ConstantLR(1e-3)
	}
	t := &Trainer{Model: model, Corpus: corpus, Opt: opt, Cfg: cfg}
	t.params = model.Params()
	t.MP = NewMixedPrecision(cfg.Precision, t.params)
	return t, nil
}

// Params returns the trainable parameters.
func (t *Trainer) Params() []*nn.Param { return t.params }

// RefreshParams re-collects the model's parameter list after a
// structural change (e.g. expert migration) and rebuilds the
// precision state. Mixed-precision master copies are re-snapshotted
// from the current weights; optimizer moments for unchanged
// parameters survive (they are keyed by parameter identity).
func (t *Trainer) RefreshParams() {
	t.params = t.Model.Params()
	t.MP = NewMixedPrecision(t.Cfg.Precision, t.params)
}

// RestrictParams narrows the trainer's trainable-parameter set to
// owned — the pipeline engine passes the stage-owned subset so the
// optimizer, gradient zeroing, precision policy, and checkpoints all
// operate stage-locally while the model itself stays whole on every
// rank. The slice is adopted, not copied.
func (t *Trainer) RestrictParams(owned []*nn.Param) {
	t.params = owned
	t.MP = NewMixedPrecision(t.Cfg.Precision, t.params)
}

// StepCount returns the number of Step calls so far.
func (t *Trainer) StepCount() int { return t.step }

// Step draws Accum micro-batches, accumulates their gradients, and
// applies one optimizer update.
//
// Step owns the buffer-pool fast path: it installs the trainer's
// step arena as the ambient tensor arena for the duration of the
// step, so every intermediate the forward/backward passes allocate is
// recycled when the arena drains on return. The ambient arena is
// process-global, so Step must not run concurrently with another
// arena-installing Step; trainers stepping concurrently (one per rank
// goroutine in the parallel engine) must set Unpooled.
func (t *Trainer) Step() Metrics {
	accum := t.Cfg.Accum
	if accum < 1 {
		accum = 1
	}
	if !t.Unpooled {
		if t.arena == nil {
			t.arena = tensor.NewArena()
		}
		prev := tensor.SetStepArena(t.arena)
		defer func() {
			tensor.SetStepArena(prev)
			t.arena.Drain()
		}()
	}
	nn.ZeroGrads(t.params)
	m := Metrics{Step: t.step}
	wire0, comm0 := t.commSnapshot()
	for micro := 0; micro < accum; micro++ {
		ids, targets := t.Corpus.Batch(t.Cfg.Batch)
		loss, aux, over := t.microStep(ids, targets, 1/float32(accum))
		m.Loss += loss / float32(accum)
		m.AuxLoss += aux / float32(accum)
		m.Overflow += over
	}
	m = t.finishStep(m)
	t.fillComm(&m, wire0, comm0)
	return m
}

// StepWith runs one optimizer step whose forward/backward phase is
// driven by the caller: run computes gradients into the restricted
// parameter set (the pipeline engine executes its micro-batch
// schedule here) and returns the micro-averaged loss, auxiliary loss,
// and overflow count. Everything around it — gradient zeroing, the
// precision policy, the PostBackward sync hook, clipping, and the
// optimizer — is the exact finishStep path Step uses, so a pipelined
// step and a gradient-accumulation step share one update rule.
// StepWith never installs a step arena (the pipeline engine always
// runs multi-rank, where the ambient arena is off-limits).
func (t *Trainer) StepWith(run func() (loss, aux float32, overflow int)) Metrics {
	nn.ZeroGrads(t.params)
	m := Metrics{Step: t.step}
	wire0, comm0 := t.commSnapshot()
	m.Loss, m.AuxLoss, m.Overflow = run()
	m = t.finishStep(m)
	t.fillComm(&m, wire0, comm0)
	return m
}

// StepOn runs one cycle on caller-provided tokens. Gradient
// accumulation is not applied here; use Step for that.
//
// StepOn never installs a step arena, making it the pooling-free
// reference path (see Unpooled for the equivalent Step behaviour).
func (t *Trainer) StepOn(ids, targets []int) Metrics {
	nn.ZeroGrads(t.params)
	m := Metrics{Step: t.step}
	wire0, comm0 := t.commSnapshot()
	m.Loss, m.AuxLoss, m.Overflow = t.microStep(ids, targets, 1)
	m = t.finishStep(m)
	t.fillComm(&m, wire0, comm0)
	return m
}

// gradScaler is implemented by MoE layers whose internally injected
// gradients (the aux loss) must track the loss scale and micro-batch
// weight.
type gradScaler interface{ SetGradScale(float32) }

// microStep accumulates one micro-batch's gradients (scaled by
// weight) without touching the optimizer.
func (t *Trainer) microStep(ids, targets []int, weight float32) (loss, aux float32, overflow int) {
	scale := t.MP.LossScale() * weight
	for _, b := range t.Model.Blocks {
		if g, ok := b.FFN.(gradScaler); ok {
			g.SetGradScale(scale)
		}
	}
	logits := t.Model.Forward(ids)
	loss = t.loss.Forward(logits, targets)
	aux, overflow = t.collectAux()

	dlogits := t.loss.Backward()
	if s := t.MP.LossScale() * weight; s != 1 {
		tensor.ScaleInPlace(dlogits, s)
	}
	t.Model.Backward(dlogits)
	// Note: the MoE aux-loss gradient is injected inside the gate
	// backward (already part of Model.Backward).
	return loss, aux, overflow
}

// finishStep runs the precision policy, gradient sync hook, clipping,
// and the optimizer.
func (t *Trainer) finishStep(m Metrics) Metrics {
	if !t.MP.PrepareGrads() {
		m.Skipped = true
		m.Scale = t.MP.LossScale()
		t.step++
		return m
	}
	if t.PostBackward != nil {
		t.PostBackward(t.params)
	}
	if t.Cfg.ClipNorm > 0 {
		m.GradNorm = ClipGradNorm(t.params, t.Cfg.ClipNorm)
	} else {
		m.GradNorm = GlobalGradNorm(t.params)
	}
	m.LR = t.Cfg.Schedule.LR(t.step)
	t.MP.Apply(t.Opt, m.LR)
	m.Scale = t.MP.LossScale()
	t.step++
	return m
}

// commSnapshot sums the cumulative wire and phase counters over the
// model's CommReporter layers.
// Layers sharing one communicator share one wire counter, so those
// are deduped by comm identity; phase time is per-layer and summed
// directly.
func (t *Trainer) commSnapshot() (mpi.WireStats, moe.Timing) {
	var ws mpi.WireStats
	var tm moe.Timing
	seen := map[*mpi.Comm]bool{}
	for _, b := range t.Model.Blocks {
		if l, ok := b.FFN.(CommReporter); ok {
			tm = tm.Add(l.PhaseTiming())
			if c := l.Comm(); !seen[c] {
				seen[c] = true
				ws.Add(l.WireStats())
			}
		}
	}
	return ws, tm
}

// fillComm records the step's comm deltas against a pre-step
// snapshot.
func (t *Trainer) fillComm(m *Metrics, wire0 mpi.WireStats, comm0 moe.Timing) {
	ws, tm := t.commSnapshot()
	m.Wire = ws.Sub(wire0)
	m.Comm = tm.Sub(comm0)
}

// collectAux sums auxiliary losses and overflow counts over the
// model's MoE layers.
func (t *Trainer) collectAux() (aux float32, overflow int) {
	for _, b := range t.Model.Blocks {
		if l, ok := b.FFN.(AuxLossLayer); ok {
			aux += l.AuxLoss()
			if r := l.LastRouting(); r != nil {
				overflow += r.Overflow
			}
		}
	}
	return aux, overflow
}
