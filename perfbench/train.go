package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// trainSpec is one closed-loop training workload: a fixed-length
// training run from a fresh world, repeated until the window is spent.
type trainSpec struct {
	strat    parallel.Strategy
	model    parallel.ModelConfig
	train    train.Config
	machine  *sunway.Machine
	rpn      int  // ranks per node
	sharded  bool // ZeRO-sharded Adam instead of replicated Adam
	steps    int  // steps per repeat; loss_final is read after them
	minSteps int  // timed steps a run needs before it may stop
}

// gptDims are the model dimensions both training workloads share.
var gptDims = nn.GPTConfig{Vocab: 256, Dim: 64, Heads: 4, Layers: 4, SeqLen: 32, FFNHidden: 256}

// trainMoE is MoDa training: dp2 x ep2 with MoE in every block,
// dropless token-choice routing, the FP16 wire with overlap, mixed
// precision and replicated Adam. One rank per node over four
// single-node supernodes, so both the EP pairs (contiguous ranks) and
// the DP pairs (strided ranks) cross supernodes and the FP16 codec
// carries the MoE all-to-all.
func trainMoE(short bool) trainSpec {
	s := trainSpec{
		strat: parallel.Strategy{DataParallel: 2, ExpertParallel: 2},
		model: parallel.ModelConfig{
			GPT:        gptDims,
			NumExperts: 8, TopK: 2, MoEHidden: 256, MoEEvery: 1,
			AuxLossWeight: 0.01, Algo: moe.Auto, RouteMode: moe.TokenChoice,
			Comm: moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true},
		},
		train:    train.Config{Batch: 2, Precision: sunway.Mixed, Schedule: train.ConstantLR(3e-3), ClipNorm: 1},
		machine:  sunway.TestMachine(4, 1),
		rpn:      1,
		steps:    30,
		minSteps: 100,
	}
	if short {
		s.steps, s.minSteps = 2, 0
	}
	return s
}

// trainPPZero is dense pipeline training with ZeRO: the same dims
// with no MoE block, dp2 x pp2 with two virtual stages per stage,
// four micro-batches per step, sharded Adam, FP32 (the pipeline
// rejects dynamic loss scaling). Two ranks per node on two
// single-node supernodes: DP pairs share a node, stage boundaries
// cross supernodes.
func trainPPZero(short bool) trainSpec {
	s := trainSpec{
		strat:    parallel.Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 2, Virtual: 2},
		model:    parallel.ModelConfig{GPT: gptDims, MoEEvery: 0},
		train:    train.Config{Batch: 1, Accum: 4, Precision: sunway.FP32, Schedule: train.ConstantLR(3e-3), ClipNorm: 1},
		machine:  sunway.TestMachine(2, 1),
		rpn:      2,
		sharded:  true,
		steps:    60,
		minSteps: 100,
	}
	if short {
		s.steps, s.minSteps = 2, 0
	}
	return s
}

// computeRate is the per-rank FLOP/s charged to the virtual clock:
// 30% of the node's peak at the run's precision, split over its ranks.
func (ts trainSpec) computeRate() float64 {
	return ts.machine.NodeFlops(ts.train.Precision) * 0.3 / float64(ts.rpn)
}

func (ts trainSpec) corpus(seed uint64) data.CorpusConfig {
	return data.CorpusConfig{Vocab: gptDims.Vocab, SeqLen: gptDims.SeqLen, Zipf: 1, Determinism: 0.85, ImageFrac: 0.25, Seed: seed}
}

// trainRepeat is what one repeat measured, read on rank 0.
type trainRepeat struct {
	setup     float64   // seconds from world creation to the first step
	stepMs    []float64 // barrier-to-barrier wall time of each step
	stats     []parallel.StepStats
	tokens    int // tokens trained over the repeat
	allocs    allocCounter
	peakHeap  uint64
	traffic   simnet.Traffic
	optBytes  int64
	skipped   int
	imbalance float64 // mean over MoE layers after the last step
	digest    uint64
	err       error
}

func (ts trainSpec) runRepeat(seed uint64, prof *cpuProfile) trainRepeat {
	var r trainRepeat
	t0 := time.Now()
	size := ts.strat.Size()
	w := mpi.NewWorld(size, simnet.New(ts.machine, ts.rpn))
	rate := ts.computeRate()
	mc := ts.model
	if mc.MoEEvery > 0 {
		mc.MoESimFLOPS = rate
	}
	cc := ts.corpus(seed)
	start, end := newGate(size), newGate(size)
	w.Run(func(c *mpi.Comm) {
		var opt train.Optimizer = train.NewAdam(0.01)
		if ts.sharded {
			opt = train.NewShardedAdam(0.01)
		}
		e, err := parallel.NewEngine(c, ts.strat, mc, cc, ts.train, opt, seed)
		if err != nil {
			// A configuration error is identical on every rank, so
			// every rank returns here before any collective.
			if c.Rank() == 0 {
				r.err = err
			}
			return
		}
		e.SetComputeRate(rate)
		lead := c.Rank() == 0
		heap := newHeapSampler()
		var a0 allocCounter
		var tr0 simnet.Traffic
		var last time.Time
		start.pass(lead, func() {
			r.setup = time.Since(t0).Seconds()
			tr0 = w.Stats().Snapshot()
			if prof != nil {
				prof.start()
			}
			a0 = readAllocs()
			last = time.Now()
		})
		for s := 0; s < ts.steps; s++ {
			st := e.Step()
			if !lead {
				continue
			}
			now := time.Now()
			r.stepMs = append(r.stepMs, float64(now.Sub(last))/1e6)
			last = now
			r.stats = append(r.stats, st)
			r.tokens += e.GlobalBatchTokens()
			heap.sample()
		}
		end.pass(lead, func() {
			r.allocs = readAllocs().since(a0)
			if prof != nil {
				prof.stop()
			}
			r.traffic = w.Stats().Snapshot().Sub(tr0)
		})
		// Readouts after the measured region; GatherExpertCounts is
		// collective, so every rank takes part.
		var imb float64
		for _, m := range e.MoELayers() {
			imb += m.Placement().Imbalance(m.GatherExpertCounts(c))
		}
		if lead {
			r.peakHeap = heap.peak
			r.optBytes = e.OptStateBytes()
			r.skipped = e.Trainer.MP.SkippedSteps()
			if n := len(e.MoELayers()); n > 0 {
				r.imbalance = imb / float64(n)
			}
		}
	})
	r.digest = trainDigest(r.stats)
	return r
}

// tokensPerSec is the repeat's host throughput: tokens trained over
// the summed step wall time.
func (r trainRepeat) tokensPerSec() float64 {
	var ms float64
	for _, v := range r.stepMs {
		ms += v
	}
	return float64(r.tokens) / (ms / 1e3)
}

// trainDigest hashes every sim-clock and loss value of a repeat; it
// must be identical across repeats of one seed.
func trainDigest(stats []parallel.StepStats) uint64 {
	h := fnv.New64a()
	for _, st := range stats {
		for _, v := range []float64{
			float64(st.Loss), float64(st.AuxLoss), st.SimTime, st.TokensPer,
			st.GradSync, st.OptimizerShard, st.ParamGather, st.BubbleSim, float64(st.Overflow),
		} {
			putFloat(h, v)
		}
	}
	return h.Sum64()
}

// runTrain runs repeats until the window is spent. A traced run
// spends half the window untraced (the trace_overhead baseline) and
// half with the CPU profile on, then times the probes.
func runTrain(ts trainSpec, rc runConfig) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	pass := func(window time.Duration, minSteps, minRepeats int, prof *cpuProfile) []trainRepeat {
		var reps []trainRepeat
		began := time.Now()
		steps := 0
		for len(reps) < minRepeats || steps < minSteps || time.Since(began) < window {
			r := ts.runRepeat(rc.seed, prof)
			if r.err != nil {
				out.fail("setup: %v", r.err)
				return reps
			}
			reps = append(reps, r)
			steps += len(r.stats)
		}
		return reps
	}
	var plain, traced []trainRepeat
	var prof cpuProfile
	if rc.trace {
		plain = pass(rc.window/2, 0, 1, nil)
		traced = pass(rc.window/2, 0, 1, &prof)
	} else {
		plain = pass(rc.window, ts.minSteps, 2, nil)
	}
	if len(plain) == 0 {
		return out
	}
	checkTrain(out, append(append([]trainRepeat(nil), plain...), traced...))
	trainMetrics(out, plain)
	if rc.trace {
		traceMetrics(out, &prof, traced)
		ts.probe(out, plain[0].optBytes, rc.seed)
	}
	return out
}

// checkTrain applies the output checks: a finite loss and no dropped
// assignment at every step, and one digest across all repeats.
func checkTrain(out *outcome, reps []trainRepeat) {
	out.digest = fmt.Sprintf("%016x", reps[0].digest)
	for i, r := range reps {
		for _, st := range r.stats {
			out.attempted++
			if math.IsNaN(float64(st.Loss)) || math.IsInf(float64(st.Loss), 0) {
				out.fail("repeat %d step %d: loss %v", i, st.Step, st.Loss)
			} else if st.Overflow != 0 {
				out.fail("repeat %d step %d: %d dropped assignments under dropless routing", i, st.Step, st.Overflow)
			}
		}
		if r.digest != reps[0].digest {
			out.fail("repeat %d digest %016x differs from repeat 0 (%s)", i, r.digest, out.digest)
		}
	}
}

// trainMetrics fills the end-to-end metrics and the per-layer
// readouts from untraced repeats.
func trainMetrics(out *outcome, reps []trainRepeat) {
	m := out.metrics
	var setups, stepMs, simStep, tokPer, repTPS []float64
	var tokens int
	var allocs allocCounter
	var peaks []float64
	var moeT moe.Timing
	var wire mpi.WireStats
	var traffic simnet.Traffic
	for _, r := range reps {
		setups = append(setups, r.setup)
		stepMs = append(stepMs, r.stepMs...)
		repTPS = append(repTPS, r.tokensPerSec())
		tokens += r.tokens
		allocs.mallocs += r.allocs.mallocs
		allocs.bytes += r.allocs.bytes
		peaks = append(peaks, float64(r.peakHeap)/(1<<20))
		traffic.Add(r.traffic)
		for _, st := range r.stats {
			moeT = moeT.Add(st.MoE)
			wire.Add(st.Wire)
		}
	}
	steps := float64(len(stepMs))
	m["setup_s"] = quantile(setups, 0.5)
	m["host_tokens_per_s"] = quantile(repTPS, 0.5)
	m["host_step_ms_p50"] = quantile(stepMs, 0.5)
	m["host_step_ms_p90"] = quantile(stepMs, 0.9)
	m["host_step_samples"] = steps
	m["host_allocs_per_token"] = float64(allocs.mallocs) / float64(tokens)
	m["host_alloc_bytes_per_token"] = float64(allocs.bytes) / float64(tokens)
	m["peak_heap_mib"] = quantile(peaks, 0.5)
	m["moe.gate_ms"] = moeT.Gate * 1e3 / steps
	m["moe.dispatch_ms"] = moeT.Dispatch * 1e3 / steps
	m["moe.expert_ms"] = moeT.Expert * 1e3 / steps
	m["moe.combine_ms"] = moeT.Combine * 1e3 / steps
	trafficMetrics(m, traffic, wire, steps)

	// Sim-clock values are identical across repeats (checked by the
	// digest), so the first repeat speaks for all.
	first := reps[0]
	var sync, shard, gather, bubble, unattributed float64
	for _, st := range first.stats {
		simStep = append(simStep, st.SimTime)
		tokPer = append(tokPer, st.TokensPer)
		sync += st.GradSync
		shard += st.OptimizerShard
		gather += st.ParamGather
		bubble += st.BubbleSim
		unattributed += st.SimTime - (st.GradSync + st.OptimizerShard + st.ParamGather + st.RecomputeSim + st.OffloadSim + st.BubbleSim)
	}
	n := float64(len(first.stats))
	m["sim_step_s"] = quantile(simStep, 0.5)
	m["sim_tokens_per_s"] = quantile(tokPer, 0.5)
	m["loss_final"] = float64(first.stats[len(first.stats)-1].Loss)
	m["parallel.grad_sync_sim_s"] = sync / n
	m["parallel.optimizer_shard_sim_s"] = shard / n
	m["parallel.param_gather_sim_s"] = gather / n
	m["parallel.bubble_sim_s"] = bubble / n
	m["parallel.bubble_share"] = bubble / n / m["sim_step_s"]
	m["parallel.sim_unattributed_s"] = unattributed / n
	m["train.opt_state_bytes_per_rank"] = float64(first.optBytes)
	m["train.skipped_steps"] = float64(first.skipped)
	m["moe.expert_imbalance"] = first.imbalance
	out.notes = append(out.notes, fmt.Sprintf("repeats     %d x %d steps, %d timed steps (p90 has %d beyond it)",
		len(reps), len(first.stats), len(stepMs), len(stepMs)/10))
}

// traceMetrics turns the traced repeats' profile into per-layer self
// time and kernel shares, and reports the tracing overhead.
func traceMetrics(out *outcome, prof *cpuProfile, traced []trainRepeat) {
	if prof.err != nil {
		out.fail("cpu profile: %v", prof.err)
		return
	}
	var steps int
	var tps []float64
	for _, r := range traced {
		steps += len(r.stats)
		tps = append(tps, r.tokensPerSec())
	}
	profileMetrics(out.metrics, prof.split, float64(steps))
	out.metrics["trace_overhead"] = quantile(tps, 0.5)/out.metrics["host_tokens_per_s"] - 1
}

// profileMetrics fills the P-sourced per-layer metrics.
func profileMetrics(m map[string]float64, sp profileSplit, steps float64) {
	for _, l := range layers {
		m[l+".self_ms_per_step"] = float64(sp.LayerNs[l]) / 1e6 / steps
	}
	m["tensor.transA_share"] = sp.share(sp.FamilyNs["transA"])
	m["tensor.tiled_share"] = sp.share(sp.FamilyNs["tiled"])
	m["tensor.naive_share"] = sp.share(sp.FamilyNs["naive"])
	m["runtime.alloc_gc_share"] = sp.share(sp.AllocGC)
}

// probe times the layer probes at this workload's shapes.
func (ts trainSpec) probe(out *outcome, optBytes int64, seed uint64) {
	cc := ts.corpus(seed)
	runProbes(out.metrics, probeShapes{
		rows:    ts.train.Batch * gptDims.SeqLen,
		machine: ts.machine,
		rpn:     ts.rpn,
		moe:     ts.model.MoEEvery > 0,
		optElem: int(optBytes / 8), // two float32 moments per element
		corpus:  &cc,
		batch:   ts.train.Batch,
	})
}
