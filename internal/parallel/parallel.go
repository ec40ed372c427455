// Package parallel implements BaGuaLu's hybrid "MoDa" parallelization
// strategy: every rank is simultaneously a data-parallel worker (it
// trains on its own token shard) and an expert-parallel worker (it
// hosts a shard of every MoE layer's expert pool).
//
// The process grid is DataParallel × ExpertParallel. Expert-parallel
// groups are contiguous rank ranges, so MoE all-to-all traffic stays
// as low in the network hierarchy as the machine allows; data-
// parallel groups stride across them. Gradient synchronization is
// two-tier:
//
//   - dense parameters (attention, layer norms, embeddings, gates)
//     are replicated on every rank and all-reduced over the world;
//   - expert parameters are replicated only across the ranks holding
//     the same shard (one per expert-parallel group) and all-reduced
//     over that data-parallel communicator.
//
// With Strategy.Pipeline > 1 the grid folds a third axis in front:
// [pp, dp, ep] with pipeline stages as contiguous rank blocks (see
// internal/parallel/layout). Each stage owns a contiguous chunk of the
// model's layers and runs the 1F1B or interleaved schedule from
// internal/parallel/pipe; gradient synchronization then happens within
// each stage's folded sub-grid (dense over the whole stage, experts
// over the stage's data-parallel groups) and only the global gradient
// norm crosses stage boundaries.
package parallel

import (
	"fmt"
	"math"
	"time"

	"bagualu/internal/trace"

	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/parallel/pipe"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// Strategy is the process-grid shape.
type Strategy struct {
	DataParallel   int
	ExpertParallel int

	// Pipeline is the pipeline-parallel depth (stage count). 0 or 1
	// keeps the flat DP×EP MoDa grid; above 1 the grid becomes
	// [pp, dp, ep] with stages as contiguous rank blocks and the
	// engine runs the pipe schedules over the model's layer chunks.
	Pipeline int

	// Virtual is the number of virtual stages (model chunks) per
	// pipeline stage. 0 or 1 selects 1F1B; above 1 the interleaved
	// schedule, which requires the micro-batch count (train.Config.
	// Accum) to be divisible by Pipeline.
	Virtual int
}

// PP returns the effective pipeline depth (>= 1).
func (s Strategy) PP() int {
	if s.Pipeline < 1 {
		return 1
	}
	return s.Pipeline
}

// VPP returns the effective virtual-stage count per stage (>= 1).
func (s Strategy) VPP() int {
	if s.Virtual < 1 {
		return 1
	}
	return s.Virtual
}

// Size returns the total rank count.
func (s Strategy) Size() int { return s.DataParallel * s.ExpertParallel * s.PP() }

// Validate checks the grid.
func (s Strategy) Validate() error {
	if s.DataParallel < 1 || s.ExpertParallel < 1 {
		return fmt.Errorf("parallel: invalid strategy %+v", s)
	}
	if s.Pipeline < 0 || s.Virtual < 0 {
		return fmt.Errorf("parallel: invalid strategy %+v", s)
	}
	if s.VPP() > 1 && s.PP() < 2 {
		return fmt.Errorf("parallel: virtual stages (%d) need Pipeline > 1", s.Virtual)
	}
	return nil
}

// ModelConfig describes the MoE transformer to build.
type ModelConfig struct {
	GPT nn.GPTConfig

	// MoE configuration. NumExperts is the total pool per MoE layer
	// and must be divisible by ExpertParallel. MoEEvery selects which
	// blocks use MoE (every n-th block; 1 = all, 0 = none -> dense
	// baseline).
	NumExperts     int
	TopK           int
	CapacityFactor float32
	AuxLossWeight  float32
	ZLossWeight    float32
	MoEHidden      int
	MoEEvery       int
	Algo           moe.A2AAlgo

	// RouteMode selects the gate's routing discipline. The zero value
	// is moe.TokenChoice — dropless routing with exact counts;
	// moe.CapacityDrop restores the legacy capacity-truncation
	// baseline (CapacityFactor then applies) and moe.ExpertChoice the
	// experts-pick-tokens ablation.
	RouteMode moe.RouteMode

	// Comm selects the MoE wire behavior: on-the-wire codec for
	// cross-supernode payloads and two-phase comm/compute overlap.
	// The zero value is the FP32 blocking path.
	Comm moe.CommConfig

	// MoESimFLOPS, when positive, makes the MoE layers charge expert
	// compute to the virtual clock at this rate (FLOP/s per rank), so
	// overlap shows up in simulated step time. It charges expert GEMMs
	// inline inside the exchange window. It composes with
	// SetComputeRate: when both are set, Step subtracts the analytic
	// expert share from the step's FLOPs before charging, so dense
	// compute is priced after the fact and expert compute inline,
	// without double-pricing either.
	MoESimFLOPS float64

	// Recompute enables activation checkpointing (see nn.GPT). The
	// MoE all-to-alls re-run during backward, doubling dispatch
	// traffic — the real memory/communication trade at scale.
	Recompute bool

	// RecomputeEvery, when positive, enables *selective* activation
	// recomputation: only every n-th block discards its activations
	// and replays forward during backward (1 = all blocks, equivalent
	// to Recompute). It overrides Recompute with a per-layer policy so
	// the memory/compute trade is tunable per layer.
	RecomputeEvery int
}

// Validate checks the model configuration.
func (m ModelConfig) Validate() error {
	if err := m.GPT.Validate(); err != nil {
		return err
	}
	if m.MoEEvery > 0 {
		if m.NumExperts <= 0 || m.MoEHidden <= 0 {
			return fmt.Errorf("parallel: MoE enabled but experts=%d hidden=%d", m.NumExperts, m.MoEHidden)
		}
	}
	return nil
}

// StepStats aggregates one engine step across ranks.
type StepStats struct {
	Step      int
	Loss      float32    // world-mean cross-entropy
	AuxLoss   float32    // world-mean auxiliary loss
	Overflow  int        // total dropped assignments (CapacityDrop mode only; 0 when dropless)
	GradNorm  float32    // local (post-sync) gradient norm at rank 0
	WallFwd   float64    // seconds, rank-local
	MoE       moe.Timing // accumulated MoE phase breakdown
	SimTime   float64    // virtual seconds elapsed on this rank
	TokensPer float64    // tokens/virtual-second across the world (0 if no sim time)

	// Wire is this rank's MoE exchange traffic for the step, post-
	// codec vs raw, split by network tier (see mpi.WireStats).
	Wire mpi.WireStats

	// Fault-tolerance phase time the fault-tolerant loop attributed
	// to this step, in virtual seconds (zero outside RunFaultTolerant):
	// parameter snapshot cost, checkpoint flush (or stall), and
	// rollback/re-form/restore after a failure.
	CkptSnapshot float64
	CkptFlush    float64
	Recovery     float64

	// Graceful-degradation telemetry for this step (zero outside
	// RunFaultTolerant with a retransmit tier armed): frames this rank
	// retransmitted, virtual seconds its sends spent in ack timeouts
	// and backoff, virtual seconds spent migrating experts away from
	// degraded ranks, and how many world ranks the health monitor
	// currently classifies degraded.
	Retransmits   int64
	RetransmitSim float64
	MitigationSim float64
	Degraded      int

	// Memory-capacity phase time for this step, in virtual seconds
	// (see metrics.PhaseGradSync etc.): gradient sync (reduce-scatter
	// or all-reduce), the local shard update under ZeRO, the parameter
	// all-gather, the recomputation forward replay, and optimizer-state
	// offload traffic.
	GradSync       float64
	OptimizerShard float64
	ParamGather    float64
	RecomputeSim   float64
	OffloadSim     float64

	// BubbleSim is virtual time this rank's pipeline stage spent
	// stalled on boundary activation/gradient receives during the step
	// (metrics.PhaseBubble; zero when Pipeline <= 1).
	BubbleSim float64
}

// Engine is the per-rank training engine. Construct one inside
// World.Run with the same seed on every rank.
type Engine struct {
	Comm     *mpi.Comm
	EP       *mpi.Comm // expert-parallel group (contiguous ranks)
	DP       *mpi.Comm // data-parallel group (strided ranks)
	Stage    *mpi.Comm // stage-local folded grid (nil when Pipeline <= 1)
	PPComm   *mpi.Comm // pipeline column, comm rank == stage (nil when Pipeline <= 1)
	Strategy Strategy
	Model    *nn.GPT
	Trainer  *train.Trainer

	// Pipeline state (all zero when Strategy.Pipeline <= 1): the folded
	// layout pair, the per-rank schedule runner, the global chunk
	// partition, micro-batches per step, and per-chunk analytic forward
	// FLOPs the runner prices on the virtual clock.
	fold          *layout.Folded
	runner        *pipe.Runner
	part          []pipe.Chunk
	micro         int
	chunkFwdFlops []float64

	moeLayers    []*moe.DistMoE
	denseParams  []*nn.Param
	expertParams []*nn.Param
	corpusCfg    data.CorpusConfig // pre-decorrelation config (Reform rebuilds shards from it)
	batch        int
	clipNorm     float32
	lastGradNorm float32
	computeRate  float64 // virtual FLOP/s per rank; 0 = don't charge compute

	// zero is non-nil when the trainer's optimizer is the ZeRO-sharded
	// Adam; gradient sync then runs reduce-scatter → shard update →
	// all-gather instead of full-tensor all-reduce, and expert
	// migration (rebalance/mitigate) is rejected because moment ranges
	// span ranks.
	zero      *train.ShardedAdam
	offloadBW float64 // host-memory bytes/s for optimizer-state offload; 0 = resident

	phases    *metrics.PhaseMeter
	phasePrev map[string]float64 // last snapshot, for per-step deltas

	// Trace, when non-nil, receives a per-rank timeline of step and
	// MoE phase spans (export with trace.WriteChromeTrace).
	Trace *trace.Recorder

	wallBase time.Time
	wallSet  bool
}

// NewEngine builds the model, communicators, corpus shard, and
// trainer for this rank. seed must match across ranks; the corpus is
// automatically decorrelated per rank.
func NewEngine(c *mpi.Comm, strat Strategy, mc ModelConfig, corpusCfg data.CorpusConfig, tc train.Config, opt train.Optimizer, seed uint64) (*Engine, error) {
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if strat.Size() != c.Size() {
		return nil, fmt.Errorf("parallel: strategy needs %d ranks, world has %d", strat.Size(), c.Size())
	}
	if mc.MoEEvery > 0 && mc.NumExperts%strat.ExpertParallel != 0 {
		return nil, fmt.Errorf("parallel: %d experts not divisible by EP=%d", mc.NumExperts, strat.ExpertParallel)
	}
	micro := tc.Accum
	if micro < 1 {
		micro = 1
	}
	if strat.PP() > 1 {
		// Dynamic loss scaling makes its skip decision from local
		// gradients; under PP those are stage-local and the decision
		// would diverge across stages. Pipeline runs use a static
		// precision.
		if tc.Precision == sunway.Mixed || tc.Precision == sunway.FP16 {
			return nil, fmt.Errorf("parallel: pipeline parallelism requires static precision (FP32/FP64), not %v", tc.Precision)
		}
		if strat.VPP() > 1 && micro%strat.PP() != 0 {
			return nil, fmt.Errorf("parallel: interleaved schedule needs Accum (%d) divisible by Pipeline (%d)", micro, strat.PP())
		}
		if mc.GPT.Layers < strat.PP()*strat.VPP() {
			return nil, fmt.Errorf("parallel: %d layers cannot fill %d pipeline chunks", mc.GPT.Layers, strat.PP()*strat.VPP())
		}
	}

	e := &Engine{corpusCfg: corpusCfg, batch: tc.Batch, clipNorm: tc.ClipNorm, micro: micro}
	// The engine clips by the *distributed* global norm after the
	// gradient sync; the trainer's local clip would use a norm that
	// differs across ranks (expert shards differ) and desynchronize
	// the dense replicas.
	tc.ClipNorm = 0
	if err := e.splitGrid(c, strat); err != nil {
		return nil, err
	}

	r := tensor.NewRNG(seed)
	var ffn nn.FFNFactory
	if mc.MoEEvery > 0 {
		ffn = func(block int, name string, rr *tensor.RNG) nn.Layer {
			if block%mc.MoEEvery != 0 {
				return nn.NewFeedForward(name+".dense", rr, mc.GPT.Dim, mc.GPT.FFNHidden)
			}
			gc := moe.GateConfig{
				Dim:            mc.GPT.Dim,
				NumExperts:     mc.NumExperts,
				TopK:           mc.TopK,
				Mode:           mc.RouteMode,
				CapacityFactor: mc.CapacityFactor,
				AuxLossWeight:  mc.AuxLossWeight,
				ZLossWeight:    mc.ZLossWeight,
			}
			m := moe.NewDistMoEComm(name, rr, gc, mc.MoEHidden, e.EP, mc.Algo, mc.Comm)
			m.SimRate = mc.MoESimFLOPS
			e.moeLayers = append(e.moeLayers, m)
			return m
		}
	}
	e.Model = nn.NewGPT(mc.GPT, r, ffn)
	e.Model.Recompute = mc.Recompute
	if mc.RecomputeEvery > 0 {
		pol := make([]bool, mc.GPT.Layers)
		for i := range pol {
			pol[i] = i%mc.RecomputeEvery == 0
		}
		e.Model.RecomputePolicy = pol
	}

	// Under PP the layer chunking must precede the parameter
	// partition: the partition then covers only stage-owned chunks.
	if strat.PP() > 1 {
		part, perr := pipe.PartitionLayers(mc.GPT.Layers, strat.PP()*strat.VPP())
		if perr != nil {
			return nil, perr
		}
		e.part = part
	}
	// Partition parameters into expert-sharded and dense/replicated.
	e.repartitionParams()

	// Per-rank corpus shard: decorrelate by rank (by within-stage index
	// under PP — every rank of a pipeline column draws the identical
	// token stream, so activations are the only cross-stage traffic).
	cc := corpusCfg
	cc.Seed = corpusCfg.Seed + uint64(e.decorrIndex())*1_000_003
	corpus, err := data.NewSynthetic(cc)
	if err != nil {
		return nil, err
	}

	tr, err := train.NewTrainer(e.Model, corpus, opt, tc)
	if err != nil {
		return nil, err
	}
	// One trainer steps per rank goroutine, concurrently: the global
	// step arena is off-limits (a rank draining it mid-step — normally
	// at the barrierless tail of its step, or early when a wire fault
	// aborts the step — would recycle tensors its peers still hold).
	tr.Unpooled = c.Size() > 1
	e.Trainer = tr
	e.phases = metrics.NewPhaseMeter(
		metrics.PhaseGradSync, metrics.PhaseOptimizerShard,
		metrics.PhaseParamGather, metrics.PhaseRecompute,
		metrics.PhaseOffload, metrics.PhaseBubble)
	e.phasePrev = map[string]float64{}
	if strat.PP() > 1 {
		// The optimizer, precision policy, and checkpoints operate on
		// the stage-owned parameter subset; the runner executes the
		// pipeline schedule inside Trainer.StepWith.
		tr.RestrictParams(e.ownedParams())
		e.buildRunner()
	}
	e.installSync(opt)
	return e, nil
}

// splitGrid builds the communicators for strat over c. Pipeline <= 1
// reproduces the seed MoDa split exactly; above 1 the folded layout
// pair from internal/parallel/layout drives the stage, intra-stage,
// and pipeline-column splits. Collective: every rank of c must call
// it with the same strategy.
func (e *Engine) splitGrid(c *mpi.Comm, strat Strategy) error {
	e.Comm, e.Strategy = c, strat
	if strat.PP() <= 1 {
		e.fold, e.Stage, e.PPComm = nil, nil, nil
		// Contiguous expert-parallel groups; strided data-parallel groups.
		e.EP = c.Split(c.Rank()/strat.ExpertParallel, c.Rank())
		e.DP = c.Split(c.Rank()%strat.ExpertParallel, c.Rank())
		return nil
	}
	fold, err := layout.Fold(c.Size(), strat.PP(), strat.DataParallel, strat.ExpertParallel)
	if err != nil {
		return err
	}
	e.fold = &fold
	rank := c.Rank()
	within := fold.Within(rank)
	// The stage is a contiguous rank block; inside it the MoDa grid
	// reappears (contiguous EP groups, strided DP groups). The pipeline
	// column links the same fold coordinate across stages, so the
	// column comm's rank equals the pipeline stage.
	e.Stage = c.Split(fold.StageColor(rank), rank)
	e.EP = e.Stage.Split(fold.ExpertColor(within), within)
	e.DP = e.Stage.Split(fold.DataColor(within), within)
	e.PPComm = c.Split(fold.PipeColor(rank), rank)
	return nil
}

// decorrIndex is the corpus-decorrelation index: the global rank on
// the flat grid, the within-stage index under PP (every rank of a
// pipeline column must draw the identical token stream).
func (e *Engine) decorrIndex() int {
	if e.fold != nil {
		return e.fold.Within(e.Comm.Rank())
	}
	return e.Comm.Rank()
}

// denseComm is the communicator dense gradients synchronize over: the
// world on the flat grid, the stage under PP.
func (e *Engine) denseComm() *mpi.Comm {
	if e.Stage != nil {
		return e.Stage
	}
	return e.Comm
}

// perStage is the number of ranks that together consume one step's
// distinct token streams — the loss/gradient averaging denominator.
// Equals the world size on the flat grid.
func (e *Engine) perStage() int { return e.denseComm().Size() }

// ownedParams returns the parameters this rank trains: the whole
// model on the flat grid, or the stage-owned chunk subset under PP
// (embeddings ride with the first chunk, the final norm and head with
// the last), in model order.
func (e *Engine) ownedParams() []*nn.Param {
	if e.fold == nil {
		return e.Model.Params()
	}
	stage := e.fold.Stage(e.Comm.Rank())
	var ps []*nn.Param
	for v := 0; v < e.Strategy.VPP(); v++ {
		g := v*e.fold.PP + stage
		if g == 0 {
			ps = append(ps, e.Model.TokEmbed.Table, e.Model.PosEmbed)
		}
		c := e.part[g]
		for i := c.Lo; i < c.Hi; i++ {
			ps = append(ps, e.Model.Blocks[i].Params()...)
		}
		if g == len(e.part)-1 {
			ps = append(ps, e.Model.FinalLN.Params()...)
			ps = append(ps, e.Model.Head.Params()...)
		}
	}
	return ps
}

// buildRunner (re)creates the pipeline schedule runner and the
// per-chunk analytic forward-FLOP table for the current partition.
func (e *Engine) buildRunner() {
	e.chunkFwdFlops = e.chunkForwardFlops()
	e.runner = &pipe.Runner{
		Stages:  e.fold.PP,
		Virtual: e.Strategy.VPP(),
		Micro:   e.micro,
		Stage:   e.fold.Stage(e.Comm.Rank()),
		Comm:    e.PPComm,
		Model:   e.Model,
		Part:    e.part,
		Rows:    e.batch * e.Model.Cfg.SeqLen,
		FwdSeconds: func(g int) float64 {
			if e.computeRate <= 0 {
				return 0
			}
			return e.chunkFwdFlops[g] / e.computeRate
		},
		AuxOf: e.chunkAux,
		Meter: e.phases,
	}
}

// chunkForwardFlops prices one micro-batch forward pass of each global
// chunk: perfmodel.TokenFlops at 2 FLOPs per active parameter over the
// chunk's blocks. The
// expert share is included only when the MoE layers do not self-charge
// their GEMMs inline on the virtual clock.
func (e *Engine) chunkForwardFlops() []float64 {
	tokens := float64(e.batch * e.Model.Cfg.SeqLen)
	self := e.moeSelfCharges()
	sharded := map[*nn.Param]bool{}
	for _, m := range e.moeLayers {
		for _, p := range m.ShardedParams() {
			sharded[p] = true
		}
	}
	out := make([]float64, len(e.part))
	for g, c := range e.part {
		var active float64
		var ps []*nn.Param
		if g == 0 {
			ps = append(ps, e.Model.TokEmbed.Table, e.Model.PosEmbed)
		}
		for i := c.Lo; i < c.Hi; i++ {
			for _, p := range e.Model.Blocks[i].Params() {
				if !sharded[p] {
					ps = append(ps, p)
				}
			}
			if !self {
				if m, ok := e.Model.Blocks[i].FFN.(*moe.DistMoE); ok {
					active += float64(m.Cfg.TopK) * float64(m.PerExpertParams())
				}
			}
		}
		if g == len(e.part)-1 {
			ps = append(ps, e.Model.FinalLN.Params()...)
			ps = append(ps, e.Model.Head.Params()...)
		}
		active += float64(nn.NumParams(ps))
		out[g] = tokens * perfmodel.TokenFlops(2, active, c.Blocks(), e.Model.Cfg.SeqLen, e.Model.Cfg.Dim)
	}
	return out
}

// chunkAux collects the auxiliary loss and overflow count from the MoE
// layers inside global chunk g (the runner calls it after each chunk
// forward, before another micro-batch overwrites the gates).
func (e *Engine) chunkAux(g int) (aux float32, overflow int) {
	c := e.part[g]
	for i := c.Lo; i < c.Hi; i++ {
		if l, ok := e.Model.Blocks[i].FFN.(train.AuxLossLayer); ok {
			aux += l.AuxLoss()
			if r := l.LastRouting(); r != nil {
				overflow += r.Overflow
			}
		}
	}
	return aux, overflow
}

// installSync binds the gradient-synchronization path matching the
// optimizer. A *train.ShardedAdam gets the ZeRO path: its moment
// shards are (re)partitioned over the dense (world) and expert
// (data-parallel) groups and PostBackward reduce-scatters instead of
// all-reducing. Reform calls this again after a shrink so the shards
// re-partition over the surviving layout.
func (e *Engine) installSync(opt train.Optimizer) {
	if z, ok := opt.(*train.ShardedAdam); ok {
		z.Bind(
			train.ShardGroup{Comm: e.denseComm(), Params: e.denseParams},
			train.ShardGroup{Comm: e.DP, Params: e.expertParams},
		)
		z.Observer = e.phases.Observe
		if e.computeRate > 0 {
			z.UpdateRate = e.computeRate / adamFlopsPerElem
		}
		e.zero = z
		e.Trainer.PostBackward = e.syncGradientsZeRO
		return
	}
	e.zero = nil
	e.Trainer.PostBackward = e.syncGradients
}

// adamFlopsPerElem is the analytic cost of one Adam element update
// (two moment EMAs, bias corrections, rsqrt, weight-decay, axpy) used
// to price the shard update when a compute rate is set.
const adamFlopsPerElem = 12

// SetComputeRate makes Step charge simulated compute time (the
// step's analytic FLOPs divided by rate) to the rank's virtual clock,
// so virtual-time throughput reflects compute as well as
// communication. rate is sustained FLOP/s per rank; 0 disables.
func (e *Engine) SetComputeRate(rate float64) {
	e.computeRate = rate
	if e.zero != nil {
		e.zero.UpdateRate = 0
		if rate > 0 {
			e.zero.UpdateRate = rate / adamFlopsPerElem
		}
	}
}

// EnableOffload prices optimizer-state offload to a host-memory tier:
// every step the resident moment state streams out and back at bwGiBs
// (GiB/s), charged to the rank's virtual clock as the "offload" phase.
// 0 disables (state stays resident). Capacity itself is modeled in
// perfmodel; here only the bandwidth cost is simulated.
func (e *Engine) EnableOffload(bwGiBs float64) {
	e.offloadBW = 0
	if bwGiBs > 0 {
		e.offloadBW = bwGiBs * (1 << 30)
	}
}

// OptStateBytes returns this rank's resident optimizer-state bytes:
// the owned moment shards under ZeRO, or the full Adam moments (8
// bytes per parameter element) on the unsharded path.
func (e *Engine) OptStateBytes() int64 {
	if e.zero != nil {
		return e.zero.StateBytes()
	}
	return 8 * int64(nn.NumParams(e.denseParams)+nn.NumParams(e.expertParams))
}

// Phases returns the engine's cumulative memory-capacity phase meter
// (grad-sync, optimizer-shard, param-gather, recompute, offload).
func (e *Engine) Phases() *metrics.PhaseMeter { return e.phases }

// phaseDelta returns the phase's accumulation since the last call.
func (e *Engine) phaseDelta(name string) float64 {
	cur := e.phases.Seconds(name)
	d := cur - e.phasePrev[name]
	e.phasePrev[name] = cur
	return d
}

// stepFlops estimates forward+backward FLOPs for one local batch:
// perfmodel.TokenFlops at 6 FLOPs per active parameter.
func (e *Engine) stepFlops() float64 {
	tokens := float64(e.batch * e.Model.Cfg.SeqLen)
	active := float64(nn.NumParams(e.denseParams))
	for _, m := range e.moeLayers {
		// Per-expert size comes from the layer, not the local shard: a
		// drained rank hosts zero experts but still routes tokens.
		active += float64(m.Cfg.TopK) * float64(m.PerExpertParams())
	}
	return tokens * perfmodel.TokenFlops(6, active, e.Model.Cfg.Layers, e.Model.Cfg.SeqLen, e.Model.Cfg.Dim)
}

// expertFlops estimates the expert share of stepFlops — the FLOPs the
// MoE layers charge inline (per routed row) when their SimRate is set.
// In dropless routing every token keeps exactly TopK assignments, so
// the analytic count matches the inline charge in expectation.
func (e *Engine) expertFlops() float64 {
	tokens := float64(e.batch * e.Model.Cfg.SeqLen)
	var per float64
	for _, m := range e.moeLayers {
		per += float64(m.Cfg.TopK) * float64(m.PerExpertParams())
	}
	return tokens * 6 * per
}

// moeSelfCharges reports whether the MoE layers price their expert
// GEMMs inline on the virtual clock.
func (e *Engine) moeSelfCharges() bool {
	for _, m := range e.moeLayers {
		if m.SimRate > 0 {
			return true
		}
	}
	return false
}

// MoELayers returns this rank's distributed MoE layers.
func (e *Engine) MoELayers() []*moe.DistMoE { return e.moeLayers }

// DenseParams returns the world-replicated parameters.
func (e *Engine) DenseParams() []*nn.Param { return e.denseParams }

// ExpertParams returns this rank's expert shard parameters.
func (e *Engine) ExpertParams() []*nn.Param { return e.expertParams }

// syncGradients is the legacy two-tier gradient synchronization
// (full-tensor all-reduce) followed by distributed gradient-norm
// clipping. The norm uses the same canonical shard-ordered float64
// partial sums as the ZeRO path (train.ShardedNormSq /
// train.CombineF64Sum), so both modes see bitwise-identical norms and
// make identical clip decisions.
func (e *Engine) syncGradients([]*nn.Param) {
	group := float32(e.perStage())
	t0 := e.Comm.Now()
	// Dense parameters: bucketed all-reduce over the replication group
	// (the world on the flat grid, the stage under PP).
	allReduceBucketed(e.denseComm(), e.denseParams, 1/group)
	// Expert parameters: all-reduce over the data-parallel group;
	// the sum then covers every replica's tokens, so normalize by the
	// replica count to match the dense average-loss scaling.
	if e.DP.Size() > 1 || group > 1 {
		allReduceBucketed(e.DP, e.expertParams, 1/group)
	}
	e.phases.Observe(metrics.PhaseGradSync, e.Comm.Now()-t0)

	// Distributed global gradient norm: the dense part is identical
	// on every rank of the replication group; the expert shards are
	// distinct within an expert-parallel group (and replicated across
	// data-parallel peers), so summing shard norms over the EP
	// communicator yields the stage norm; under PP the stages' partial
	// norms then combine over the pipeline column, identically on
	// every rank.
	denseSq := train.ShardedNormSq(e.denseComm(), e.denseParams)
	expertSq := train.ShardedNormSq(e.DP, e.expertParams)
	totalSq := denseSq
	if e.EP.Size() > 1 {
		totalSq += train.CombineF64Sum(e.EP, expertSq)
	} else {
		totalSq += expertSq
	}
	if e.PPComm != nil && e.PPComm.Size() > 1 {
		totalSq = train.CombineF64Sum(e.PPComm, totalSq)
	}
	norm := float32(math.Sqrt(totalSq))
	e.lastGradNorm = norm
	if e.clipNorm > 0 && norm > e.clipNorm {
		scale := e.clipNorm / norm
		for _, p := range e.denseParams {
			tensor.ScaleInPlace(p.G, scale)
		}
		for _, p := range e.expertParams {
			tensor.ScaleInPlace(p.G, scale)
		}
	}
}

// syncGradientsZeRO replaces the full-tensor all-reduce with the
// sharded path: reduce-scatter leaves each rank holding only its owned
// range of the reduced gradients (the same bytes on the wire as a ring
// all-reduce); the optimizer later updates that shard and all-gathers
// the parameters. Norm and clip use the identical canonical partial
// sums as the legacy path, applied to the shards.
func (e *Engine) syncGradientsZeRO([]*nn.Param) {
	group := float32(e.perStage())
	t0 := e.Comm.Now()
	e.zero.SyncGradients(1 / group)
	e.phases.Observe(metrics.PhaseGradSync, e.Comm.Now()-t0)

	denseSq := e.zero.GroupNormSq(0)
	expertSq := e.zero.GroupNormSq(1)
	totalSq := denseSq
	if e.EP.Size() > 1 {
		totalSq += train.CombineF64Sum(e.EP, expertSq)
	} else {
		totalSq += expertSq
	}
	if e.PPComm != nil && e.PPComm.Size() > 1 {
		totalSq = train.CombineF64Sum(e.PPComm, totalSq)
	}
	norm := float32(math.Sqrt(totalSq))
	e.lastGradNorm = norm
	if e.clipNorm > 0 && norm > e.clipNorm {
		e.zero.ScaleGradShards(e.clipNorm / norm)
	}
}

// allReduceBucketed concatenates gradients into one buffer, reduces
// it, rescales, and unpacks — the gradient-bucketing optimization
// every large-scale trainer applies to avoid per-tensor latency.
func allReduceBucketed(c *mpi.Comm, params []*nn.Param, scale float32) {
	if len(params) == 0 {
		return
	}
	total := 0
	for _, p := range params {
		total += p.G.Len()
	}
	buf := make([]float32, total)
	off := 0
	for _, p := range params {
		copy(buf[off:], p.G.Data)
		off += p.G.Len()
	}
	if c.Size() > 1 {
		buf = c.AllReduce(buf, mpi.OpSum)
	}
	off = 0
	for _, p := range params {
		copy(p.G.Data, buf[off:off+p.G.Len()])
		tensor.ScaleInPlace(p.G, scale)
		off += p.G.Len()
	}
}

// Step runs one synchronous training step and returns world-level
// statistics (identical on every rank).
func (e *Engine) Step() StepStats {
	for _, m := range e.moeLayers {
		m.Time.Reset()
	}
	simStart := e.Comm.Now()
	if !e.wallSet {
		e.wallBase = time.Now()
		e.wallSet = true
	}
	t0 := time.Now()
	var local train.Metrics
	if e.runner != nil {
		local = e.stepPipelined()
	} else {
		local = e.Trainer.Step()
	}
	wallStep := time.Since(t0).Seconds()
	// The pipeline runner prices compute inline per chunk pass (fwd,
	// replay, bwd), so the post-hoc charge below applies only to the
	// flat grid.
	if e.computeRate > 0 && e.runner == nil {
		flops := e.stepFlops()
		if e.moeSelfCharges() {
			// The MoE layers already charged the expert GEMMs inline
			// (inside the exchange window, where overlap can hide
			// them); charge only the dense remainder here.
			flops -= e.expertFlops()
		}
		e.Comm.Compute(flops / e.computeRate)
		// Recomputation replays the forward pass of the checkpointed
		// blocks during backward: charge that fraction of the step's
		// forward FLOPs (one third of fwd+bwd) on top. Self-charging
		// MoE layers price their own replayed GEMMs inline, so the
		// already-adjusted flops excludes them here too.
		if frac := e.Model.RecomputedFraction(); frac > 0 {
			secs := frac * flops / 3 / e.computeRate
			e.Comm.Compute(secs)
			e.phases.Observe(metrics.PhaseRecompute, secs)
		}
	}
	if e.offloadBW > 0 {
		// Offloaded optimizer state streams host→device and back once
		// per step (read moments, write updated moments).
		secs := 2 * float64(e.OptStateBytes()) / e.offloadBW
		e.Comm.Compute(secs)
		e.phases.Observe(metrics.PhaseOffload, secs)
	}
	if e.Trace != nil {
		start := t0.Sub(e.wallBase).Seconds()
		e.Trace.Span("step", e.Comm.Rank(), start, start+wallStep)
		// MoE phases laid out sequentially inside the step span
		// (their per-step deltas were reset at the top of Step).
		cursor := start
		for _, phase := range []struct {
			name string
			dur  float64
		}{
			{"moe-gate", e.sumMoE(func(t moe.Timing) float64 { return t.Gate })},
			{"moe-dispatch", e.sumMoE(func(t moe.Timing) float64 { return t.Dispatch })},
			{"moe-expert", e.sumMoE(func(t moe.Timing) float64 { return t.Expert })},
			{"moe-combine", e.sumMoE(func(t moe.Timing) float64 { return t.Combine })},
		} {
			if phase.dur > 0 {
				e.Trace.Span(phase.name, e.Comm.Rank(), cursor, cursor+phase.dur)
				cursor += phase.dur
			}
		}
	}

	st := StepStats{Step: local.Step, GradNorm: e.lastGradNorm}
	st.GradSync = e.phaseDelta(metrics.PhaseGradSync)
	st.OptimizerShard = e.phaseDelta(metrics.PhaseOptimizerShard)
	st.ParamGather = e.phaseDelta(metrics.PhaseParamGather)
	st.RecomputeSim = e.phaseDelta(metrics.PhaseRecompute)
	st.OffloadSim = e.phaseDelta(metrics.PhaseOffload)
	st.BubbleSim = e.phaseDelta(metrics.PhaseBubble)
	// Aggregate loss/aux/overflow across the world. The divisor is the
	// replica count (== world on the flat grid): under PP the loss
	// lives only on last-chunk ranks and the aux loss is spread over a
	// column's stages, so the world sum counts each of the perStage
	// token streams exactly once.
	agg := e.Comm.AllReduce([]float32{local.Loss, local.AuxLoss, float32(local.Overflow)}, mpi.OpSum)
	group := float32(e.perStage())
	st.Loss = agg[0] / group
	st.AuxLoss = agg[1] / group
	st.Overflow = int(agg[2])
	// The trainer already computed per-step comm deltas over the MoE
	// layers (phase time per layer, wire bytes deduped per comm).
	st.MoE = local.Comm
	st.Wire = local.Wire
	st.WallFwd = wallStep // fwd+bwd+update; finer split comes from MoE timing
	st.SimTime = e.Comm.Now() - simStart
	if st.SimTime > 0 {
		tokens := float64(e.batch*e.Model.Cfg.SeqLen) * float64(e.Comm.Size())
		if e.runner != nil {
			// M micro-batches per step over perStage distinct streams.
			tokens = float64(e.batch*e.Model.Cfg.SeqLen) * float64(e.micro*e.perStage())
		}
		st.TokensPer = tokens / st.SimTime
	}
	return st
}

// stepPipelined runs one optimizer step through the pipeline schedule:
// the trainer wraps the runner's micro-batch loop with its usual
// gradient zeroing, sync hook, and optimizer update. Every rank of a
// pipeline column draws the same micro-batches (same corpus seed), so
// the stream stays aligned for checkpointed RNG state on all stages.
func (e *Engine) stepPipelined() train.Metrics {
	return e.Trainer.StepWith(func() (float32, float32, int) {
		scale := e.Trainer.MP.LossScale() / float32(e.micro)
		for _, b := range e.Model.Blocks {
			if g, ok := b.FFN.(gradScaler); ok {
				g.SetGradScale(scale)
			}
		}
		batches := make([]pipe.MicroBatch, e.micro)
		for i := range batches {
			ids, targets := e.Trainer.Corpus.Batch(e.batch)
			batches[i] = pipe.MicroBatch{IDs: ids, Targets: targets}
		}
		return e.runner.Step(batches, scale)
	})
}

// gradScaler mirrors train's unexported hook for MoE layers whose
// internally injected aux-loss gradient must track the micro-batch
// weight.
type gradScaler interface{ SetGradScale(float32) }

// sumMoE folds a Timing accessor over this rank's MoE layers.
func (e *Engine) sumMoE(f func(moe.Timing) float64) float64 {
	var total float64
	for _, m := range e.moeLayers {
		total += f(m.Time)
	}
	return total
}

// GlobalBatchTokens returns tokens consumed per step across all ranks.
func (e *Engine) GlobalBatchTokens() int {
	if e.runner != nil {
		return e.batch * e.Model.Cfg.SeqLen * e.micro * e.perStage()
	}
	return e.batch * e.Model.Cfg.SeqLen * e.Comm.Size()
}

// NumParamsGlobal estimates the global parameter count: dense params
// once plus each rank's expert shard summed over expert-parallel
// ranks. Under PP the local dense/expert sets cover only this rank's
// stage, so the count is rebuilt from the whole (replicated) model.
func (e *Engine) NumParamsGlobal() int {
	if e.fold != nil {
		shardedLocal := 0
		for _, m := range e.moeLayers {
			shardedLocal += nn.NumParams(m.ShardedParams())
		}
		dense := e.Model.NumParams() - shardedLocal
		return dense + shardedLocal*e.Strategy.ExpertParallel
	}
	dense := nn.NumParams(e.denseParams)
	expertLocal := nn.NumParams(e.expertParams)
	return dense + expertLocal*e.Strategy.ExpertParallel
}

// Fold returns the folded layout pair (nil when Pipeline <= 1).
func (e *Engine) Fold() *layout.Folded { return e.fold }

// PipelineRunner returns the schedule runner (nil when Pipeline <= 1).
func (e *Engine) PipelineRunner() *pipe.Runner { return e.runner }

// MicroBatches returns the micro-batch count per optimizer step.
func (e *Engine) MicroBatches() int { return e.micro }
