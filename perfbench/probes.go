package main

// Probes: timed direct calls into one layer's public functions at a
// workload's shapes, run after the traced loop. Each reports the
// median of repeated calls.

import (
	"time"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// probeBudget bounds the wall time of one probe.
const probeBudget = 150 * time.Millisecond

var gemmProbes = []string{"matmul", "matmul_transb", "matmul_transa", "grouped_fwd", "grouped_transa", "naive_decode"}

var collectiveProbes = []string{"alltoallv", "allreduce", "reduce_scatter", "all_gather"}

// Expert layout the grouped probes and the gate probe use: 8 experts,
// top-2, 4 of them local to a rank (EP 2).
const (
	probeExperts      = 8
	probeTopK         = 2
	probeLocalExperts = 4
	probeDecodeRows   = 4 // one decode row per resident sequence
)

// timeIt returns the median wall seconds of fn over repeated calls.
func timeIt(fn func()) float64 {
	fn() // warm pools and caches
	var xs []float64
	began := time.Now()
	for len(xs) < 5 || (time.Since(began) < probeBudget && len(xs) < 10000) {
		t := time.Now()
		fn()
		xs = append(xs, time.Since(t).Seconds())
	}
	return quantile(xs, 0.5)
}

// probeShapes describes one workload's probe sizes.
type probeShapes struct {
	rows    int // token rows of one rank's GEMMs
	machine *sunway.Machine
	rpn     int
	moe     bool // the workload runs MoE layers
	optElem int  // optimizer-updated elements per rank (0 = none)
	corpus  *data.CorpusConfig
	batch   int
}

// runProbes fills the X-sourced per-layer metrics.
func runProbes(m map[string]float64, ps probeShapes) {
	d, f := gptDims.Dim, gptDims.FFNHidden
	r := tensor.NewRNG(99)
	x := tensor.Randn(r, 1, ps.rows, d)
	w := tensor.Randn(r, 1, d, f)
	g := tensor.Randn(r, 1, ps.rows, f)
	wt := tensor.Randn(r, 1, d, f)
	gflops := func(flops float64, fn func()) float64 { return flops / timeIt(fn) / 1e9 }
	dense := 2 * float64(ps.rows*d*f)
	m["tensor.matmul_gflops"] = gflops(dense, func() { tensor.MatMul(x, w) })
	m["tensor.matmul_transb_gflops"] = gflops(dense, func() { tensor.MatMulTransB(g, wt) })
	m["tensor.matmul_transa_gflops"] = gflops(dense, func() { tensor.MatMulTransA(x, g) })

	// Routed rows spread evenly over the local experts.
	rows := ps.rows * probeTopK
	off := make([]int, probeLocalExperts+1)
	for e := range off {
		off[e] = e * rows / probeLocalExperts
	}
	ga := tensor.Randn(r, 1, rows, d)
	gb := tensor.Randn(r, 1, rows, f)
	gout := tensor.New(rows, f)
	bs := make([]*tensor.Tensor, probeLocalExperts)
	outs := make([]*tensor.Tensor, probeLocalExperts)
	for e := range bs {
		bs[e] = tensor.Randn(r, 1, d, f)
		outs[e] = tensor.New(d, f)
	}
	grouped := 2 * float64(rows*d*f)
	m["tensor.grouped_fwd_gflops"] = gflops(grouped, func() { tensor.GroupedMatMulInto(gout, ga, off, bs) })
	m["tensor.grouped_transa_gflops"] = gflops(grouped, func() { tensor.GroupedMatMulTransAInto(outs, ga, gb, off) })
	xd := tensor.Randn(r, 1, probeDecodeRows, d)
	m["tensor.naive_decode_gflops"] = gflops(2*float64(probeDecodeRows*d*f), func() { tensor.MatMulNaive(xd, w) })

	if ps.moe {
		gate := moe.NewGate("probe.gate", r, moe.GateConfig{Dim: d, NumExperts: probeExperts, TopK: probeTopK})
		m["moe.gate_route_us"] = timeIt(func() { gate.Forward(x) }) * 1e6
	}
	if ps.optElem > 0 {
		p := nn.NewParam("probe.w", tensor.Randn(r, 1, ps.optElem))
		p.G.CopyFrom(tensor.Randn(r, 1e-3, ps.optElem))
		opt := train.NewAdam(0.01)
		params := []*nn.Param{p}
		m["train.adam_step_ms"] = timeIt(func() { opt.Step(params, 1e-3) }) * 1e3
	}
	if ps.corpus != nil {
		c, err := data.NewSynthetic(*ps.corpus)
		if err == nil {
			m["data.batch_us"] = timeIt(func() { c.Batch(ps.batch) }) * 1e6
		}
	}
	collectiveMetrics(m, ps)
}

// collectiveMetrics times each collective on a fresh 4-rank world of
// the workload's topology: host microseconds per call and virtual
// seconds per call, both read on rank 0. The all-to-all moves one
// rank's routed rows; the reductions move the dense model's
// gradient vector.
func collectiveMetrics(m map[string]float64, ps probeShapes) {
	const ranks = 4
	n := nn.NumParams(nn.NewGPT(gptDims, tensor.NewRNG(1), nil).Params())
	rowFloats := ps.rows * probeTopK * gptDims.Dim / ranks
	w := mpi.NewWorld(ranks, simnet.New(ps.machine, ps.rpn))
	w.Run(func(c *mpi.Comm) {
		grad := make([]float32, n)
		counts := make([]int, ranks)
		for i := range counts {
			counts[i] = rowFloats
		}
		row := make([]float32, rowFloats)
		ops := map[string]func(){
			"alltoallv": func() {
				sb := mpi.NewSendBuf(counts)
				for dst := range counts {
					sb.Append(dst, row)
				}
				rb := c.AllToAllv(sb, mpi.FP16Wire)
				sb.Release()
				rb.Release()
			},
			"allreduce":      func() { c.AllReduce(grad, mpi.OpSum) },
			"reduce_scatter": func() { c.ReduceScatterShard(grad, mpi.OpSum) },
			"all_gather": func() {
				my := c.MyShard(n)
				c.AllGatherShard(grad[my.Lo:my.Hi], n)
			},
		}
		// Every rank runs the same fixed number of calls, so the
		// collectives pair up; rank 0 records.
		const calls = 40
		for _, name := range collectiveProbes {
			op := ops[name]
			op()
			var wall, sim []float64
			for i := 0; i < calls; i++ {
				t, s := time.Now(), c.Now()
				op()
				wall = append(wall, time.Since(t).Seconds())
				sim = append(sim, c.Now()-s)
			}
			if c.Rank() == 0 {
				m["mpi."+name+"_us"] = quantile(wall, 0.5) * 1e6
				m["mpi."+name+"_sim_s"] = quantile(sim, 0.5)
			}
		}
	})
}
