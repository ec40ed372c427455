package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"time"

	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/serve"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// serve-moe: one seeded Poisson stream served open-loop on the
// virtual clock by a 4-rank EP world (two ranks per node, two
// single-node supernodes, so the expert dispatch crosses supernodes
// on the FP16 wire), replayed at each rate of the ladder.
const (
	serveRanks    = 4
	serveRequests = 256
	serveNominal  = 2.0  // req/simsec, below the knee; carries TTFT/TPOT
	serveHostRate = 16.0 // req/simsec, saturated: the stepped, host-timed replay
	serveTTFTMax  = 1.0  // simsec, limit on TTFT p99 for sim_max_rate_rps
	serveTPOTMax  = 0.2  // simsec, limit on TPOT p99
	serveFLOPS    = 1e9  // virtual FLOP/s per rank
	serveMemBW    = 0.01 // GiB/s of weight streaming per rank
	serveMaxBatch = 8    // resident sequences per rank
	serveRows     = 32   // GEMM rows of the probes: about one prompt
)

// serveDims bounds prompt (8-48) plus output (8-40) tokens.
var serveDims = nn.GPTConfig{Vocab: 256, Dim: 64, Heads: 4, Layers: 4, SeqLen: 96, FFNHidden: 256}

var serveGate = moe.GateConfig{Dim: 64, NumExperts: 8, TopK: 2, CapacityFactor: 2}

var serveConfig = serve.Config{Batching: serve.Continuous, MaxBatch: serveMaxBatch, FLOPS: serveFLOPS, MemBWGiBs: serveMemBW}

func serveMachine() *sunway.Machine { return sunway.TestMachine(2, 1) }

func serveStream(seed uint64, rate float64, requests int) []serve.Request {
	return serve.WorkloadConfig{
		Seed: seed, Requests: requests, RatePerSec: rate, Vocab: serveDims.Vocab,
		PromptMin: 8, PromptMax: 48, NewMin: 8, NewMax: 40,
	}.Generate()
}

func serveModel(c *mpi.Comm, seed uint64) *nn.GPT {
	return nn.NewGPT(serveDims, tensor.NewRNG(seed), func(_ int, name string, r *tensor.RNG) nn.Layer {
		m := moe.NewDistMoEComm(name, r, serveGate, serveDims.FFNHidden, c, moe.Hierarchical,
			moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true})
		m.SimRate = serveFLOPS
		return m
	})
}

// serveCall is one replay of the stream at one rate.
type serveCall struct {
	rate     float64
	requests int
	setup    float64 // world, models and stream, until serving starts
	wall     float64 // serving wall seconds
	res      serve.Result
	allocs   allocCounter
	traffic  simnet.Traffic
	wire     mpi.WireStats
	stepMs   []float64 // stepped replays only
	peakHeap uint64    // stepped replays only
	tokens   [][]int   // stepped replays only: served tokens by request id
}

// replay serves the stream at rate on a fresh world. A plain replay
// calls serve.Run; a stepped one drives the same loop through
// serve.Engine (stepServe) to time each step and keep the tokens.
func replay(seed uint64, rate float64, requests int, stepped bool, prof *cpuProfile) serveCall {
	sc := serveCall{rate: rate}
	t0 := time.Now()
	reqs := serveStream(seed, rate, requests)
	sc.requests = len(reqs)
	if stepped {
		sc.tokens = make([][]int, len(reqs))
	}
	w := mpi.NewWorld(serveRanks, simnet.New(serveMachine(), 2))
	start, end := newGate(serveRanks), newGate(serveRanks)
	w.Run(func(c *mpi.Comm) {
		model := serveModel(c, seed)
		mine := serve.Partition(reqs, c.Rank(), c.Size())
		lead := c.Rank() == 0
		heap := newHeapSampler()
		var a0 allocCounter
		var tr0 simnet.Traffic
		var began time.Time
		start.pass(lead, func() {
			sc.setup = time.Since(t0).Seconds()
			tr0 = w.Stats().Snapshot()
			if prof != nil {
				prof.start()
			}
			a0 = readAllocs()
			began = time.Now()
		})
		var res serve.Result
		if stepped {
			res = stepServe(model, c, mine, func(ms float64) {
				if lead {
					sc.stepMs = append(sc.stepMs, ms)
					heap.sample()
				}
			}, func(done serve.Completion) { sc.tokens[done.Req.ID] = done.Tokens })
		} else {
			res = serve.Run(model, c, serveConfig, mine)
		}
		end.pass(lead, func() {
			sc.wall = time.Since(began).Seconds()
			sc.allocs = readAllocs().since(a0)
			if prof != nil {
				prof.stop()
			}
			sc.traffic = w.Stats().Snapshot().Sub(tr0)
		})
		merged := res.MergeAcross(c)
		if lead {
			sc.res = merged
			sc.wire = c.WireStats()
			sc.peakHeap = heap.peak
		}
	})
	return sc
}

// stepServe is serve.Run's loop over the public serve.Engine API,
// reporting each step's wall milliseconds (from the lockstep
// all-reduce to the end of Engine.Step) and every completion. Its
// merged Result is checked against serve.Run's at the same rate, so
// the two cannot drift apart unnoticed.
func stepServe(model *nn.GPT, c *mpi.Comm, reqs []serve.Request, onStep func(ms float64), keep func(serve.Completion)) serve.Result {
	e := serve.NewEngine(model, c, serveConfig)
	next := 0
	for {
		t := time.Now()
		now := c.Now()
		for next < len(reqs) && reqs[next].Arrival <= now+1e-9 {
			e.Offer(reqs[next])
			next++
		}
		e.ShedExpired(now)
		remaining := (len(reqs) - next) + e.Pending()
		sums := c.AllReduce([]float32{float32(remaining), float32(e.Pending())}, mpi.OpSum)
		if sums[0] == 0 {
			break
		}
		if sums[1] == 0 {
			ns := math.MaxInt
			if next < len(reqs) {
				ns = int(math.Ceil(reqs[next].Arrival * 1e9))
			}
			c.AdvanceTo(float64(slices.Min(c.AllGatherInts([]int{ns}))) * 1e-9)
			continue
		}
		e.Admit() // continuous batching joins at every step
		for _, done := range e.Step() {
			keep(done)
		}
		onStep(float64(time.Since(t)) / 1e6)
	}
	return e.Result()
}

// resultDigest hashes every deterministic field of a merged result.
func resultDigest(h io.Writer, r serve.Result) {
	for _, v := range []int{r.Completed, r.Rejected, r.PrefillTokens, r.OutputTokens, r.Steps, r.PeakKV} {
		putFloat(h, float64(v))
	}
	putFloat(h, r.Makespan)
	for _, hist := range []*metrics.Histogram{r.TTFT, r.TPOT, r.E2E} {
		putFloat(h, hist.Quantile(0.5))
		putFloat(h, hist.Quantile(0.99))
	}
}

// serveRepeat is one stepped replay at the saturated rate, where
// every step carries a full batch and the host metrics are taken,
// plus one serve.Run replay per ladder rate for the sim-clock metrics.
type serveRepeat struct {
	stepped serveCall
	ladder  []serveCall
	digest  uint64
}

func (r serveRepeat) calls() []serveCall { return append([]serveCall{r.stepped}, r.ladder...) }

// at returns the ladder replay at rate.
func (r serveRepeat) at(rate float64) serveCall {
	for _, sc := range r.ladder {
		if sc.rate == rate {
			return sc
		}
	}
	return serveCall{}
}

// tokensPerSec is the repeat's host throughput: prefill and output
// tokens of the stepped replay over its serving wall time.
func (r serveRepeat) tokensPerSec() float64 {
	return float64(r.stepped.res.PrefillTokens+r.stepped.res.OutputTokens) / r.stepped.wall
}

// runServeRepeat replays the stream once stepped and once per ladder
// rate. Only the stepped replay is profiled, so profile time and the
// host metrics describe the same steps.
func runServeRepeat(seed uint64, requests int, prof *cpuProfile) serveRepeat {
	r := serveRepeat{stepped: replay(seed, serveHostRate, requests, true, prof)}
	for _, rate := range serveRates {
		r.ladder = append(r.ladder, replay(seed, rate, requests, false, nil))
	}
	h := fnv.New64a()
	for _, toks := range r.stepped.tokens {
		putFloat(h, float64(len(toks)))
		for _, t := range toks {
			putFloat(h, float64(t))
		}
	}
	for _, sc := range r.ladder {
		resultDigest(h, sc.res)
	}
	r.digest = h.Sum64()
	return r
}

func runServe(rc runConfig) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	requests := serveRequests
	if rc.short {
		requests = 8
	}
	pass := func(window time.Duration, minRepeats int, prof *cpuProfile) []serveRepeat {
		var reps []serveRepeat
		began := time.Now()
		for len(reps) < minRepeats || time.Since(began) < window {
			reps = append(reps, runServeRepeat(rc.seed, requests, prof))
		}
		return reps
	}
	var plain, traced []serveRepeat
	var prof cpuProfile
	if rc.trace {
		plain = pass(rc.window/2, 1, nil)
		traced = pass(rc.window/2, 1, &prof)
	} else {
		plain = pass(rc.window, 2, nil)
	}
	checkServe(out, append(append([]serveRepeat(nil), plain...), traced...), rc.seed, requests)
	serveMetrics(out, plain)
	if rc.trace {
		if prof.err != nil {
			out.fail("cpu profile: %v", prof.err)
		} else {
			steps := 0
			var tps []float64
			for _, r := range traced {
				tps = append(tps, r.tokensPerSec())
				steps += r.stepped.res.Steps
			}
			profileMetrics(out.metrics, prof.split, float64(steps))
			out.metrics["trace_overhead"] = quantile(tps, 0.5)/out.metrics["host_tokens_per_s"] - 1
		}
		runProbes(out.metrics, probeShapes{rows: serveRows, machine: serveMachine(), rpn: 2, moe: true})
		out.metrics["nn.infer_step_us"] = inferProbe(rc.seed) * 1e6
	}
	return out
}

// checkServe applies the serving output checks: every request sent is
// completed or rejected at every rate, each completed request emitted
// its MaxNew tokens, the stepped replay agrees with serve.Run at the
// same rate, and one digest holds across repeats.
func checkServe(out *outcome, reps []serveRepeat, seed uint64, requests int) {
	out.digest = fmt.Sprintf("%016x", reps[0].digest)
	reqs := serveStream(seed, serveHostRate, requests)
	for i, r := range reps {
		for _, sc := range r.calls() {
			out.attempted += sc.requests
			out.failed += sc.res.Rejected
			if got := sc.res.Completed + sc.res.Rejected; got != sc.requests {
				out.fail("repeat %d rate %g: %d completed + rejected of %d sent", i, sc.rate, got, sc.requests)
			}
		}
		for id, toks := range r.stepped.tokens {
			if len(toks) != reqs[id].MaxNew {
				out.fail("repeat %d: request %d emitted %d of %d tokens", i, id, len(toks), reqs[id].MaxNew)
			}
		}
		a, b := fnv.New64a(), fnv.New64a()
		resultDigest(a, r.stepped.res)
		resultDigest(b, r.at(serveHostRate).res)
		if a.Sum64() != b.Sum64() {
			out.fail("repeat %d: stepped replay result differs from serve.Run at rate %g", i, serveHostRate)
		}
		if r.digest != reps[0].digest {
			out.fail("repeat %d digest %016x differs from repeat 0 (%s)", i, r.digest, out.digest)
		}
	}
}

// serveMetrics fills the end-to-end metrics (host ones from the
// stepped replays) and the per-rate readouts from untraced repeats.
func serveMetrics(out *outcome, reps []serveRepeat) {
	m := out.metrics
	var setups, stepMs, peaks, repTPS []float64
	var tokens int
	var allocs allocCounter
	for _, r := range reps {
		repTPS = append(repTPS, r.tokensPerSec())
		for _, sc := range r.calls() {
			setups = append(setups, sc.setup)
		}
		st := r.stepped
		tokens += st.res.PrefillTokens + st.res.OutputTokens
		allocs.mallocs += st.allocs.mallocs
		allocs.bytes += st.allocs.bytes
		stepMs = append(stepMs, st.stepMs...)
		peaks = append(peaks, float64(st.peakHeap)/(1<<20))
	}
	m["setup_s"] = quantile(setups, 0.5)
	m["host_tokens_per_s"] = quantile(repTPS, 0.5)
	m["host_step_ms_p50"] = quantile(stepMs, 0.5)
	m["host_step_ms_p90"] = quantile(stepMs, 0.9)
	m["host_step_samples"] = float64(len(stepMs))
	m["host_allocs_per_token"] = float64(allocs.mallocs) / float64(tokens)
	m["host_alloc_bytes_per_token"] = float64(allocs.bytes) / float64(tokens)
	m["peak_heap_mib"] = quantile(peaks, 0.5)

	// Sim-clock values repeat exactly (checked by the digest).
	first := reps[0]
	nom := first.at(serveNominal)
	m["sim_tokens_per_s"] = first.at(serveHostRate).res.Throughput()
	m["sim_ttft_p50_s"] = nom.res.TTFT.Quantile(0.5)
	m["sim_ttft_p99_s"] = nom.res.TTFT.Quantile(0.99)
	m["sim_tpot_p50_s"] = nom.res.TPOT.Quantile(0.5)
	m["sim_tpot_p99_s"] = nom.res.TPOT.Quantile(0.99)
	for _, sc := range first.ladder {
		r := sc.res
		p := fmt.Sprintf("serve.rate%g.", sc.rate)
		m[p+"tokens_per_step"] = float64(r.PrefillTokens+r.OutputTokens) / float64(r.Steps)
		m[p+"peak_kv_tokens"] = float64(r.PeakKV)
		m[p+"completed"] = float64(r.Completed)
		m[p+"rejected"] = float64(r.Rejected)
		m[p+"e2e_p99_s"] = r.E2E.Quantile(0.99)
		if r.Rejected == 0 && r.TTFT.Quantile(0.99) <= serveTTFTMax && r.TPOT.Quantile(0.99) <= serveTPOTMax {
			m["sim_max_rate_rps"] = sc.rate
		}
	}
	// Arrivals are scheduled on the virtual clock, so the generator is
	// never late by construction.
	m["serve.generator_lateness_s"] = 0
	st := first.stepped
	trafficMetrics(m, st.traffic, st.wire, float64(st.res.Steps))
	out.notes = append(out.notes,
		fmt.Sprintf("repeats     %d x (stepped replay at %g req/simsec + ladder %v), %d requests each, %d timed steps",
			len(reps), serveHostRate, serveRates, st.requests, len(stepMs)),
		fmt.Sprintf("limits      TTFT p99 <= %g simsec, TPOT p99 <= %g simsec, 0 rejected", serveTTFTMax, serveTPOTMax))
}

// inferProbe times one KV-decode step of a single-rank serving model
// (four sequences, one row each, after an 8-token prefill), median
// over fresh caches so the context never outgrows the window.
func inferProbe(seed uint64) float64 {
	model := nn.NewGPT(serveDims, tensor.NewRNG(seed), func(_ int, name string, r *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, r, serveGate, serveDims.FFNHidden)
	})
	const seqs, prompt, decode = 4, 8, 32
	var xs []float64
	for len(xs) < 200 {
		runs := make([]nn.InferRun, seqs)
		var toks []int
		for i := range runs {
			runs[i] = nn.InferRun{Cache: model.NewKVCache(), Rows: prompt}
			for j := 0; j < prompt; j++ {
				toks = append(toks, (i*prompt+j)%serveDims.Vocab)
			}
		}
		model.InferStep(toks, runs)
		toks = toks[:seqs]
		for i := range runs {
			runs[i].Rows = 1
		}
		for s := 0; s < decode; s++ {
			t := time.Now()
			model.InferStep(toks, runs)
			xs = append(xs, time.Since(t).Seconds())
		}
	}
	return quantile(xs, 0.5)
}
