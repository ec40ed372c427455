// Command bagualu-comm regenerates the collective micro-benchmarks
// (experiments R4 and R8): all-to-all and all-reduce virtual time and
// inter-supernode traffic versus message size, rank count, and
// algorithm.
package main

import (
	"flag"
	"fmt"
	"os"

	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

func main() {
	var (
		ranks = flag.Int("ranks", 32, "world size")
		perSN = flag.Int("nodes-per-sn", 4, "nodes per supernode")
		rpn   = flag.Int("ranks-per-node", 2, "ranks per node")
		minKB = flag.Int("min-kb", 1, "smallest per-rank payload in KiB")
		maxKB = flag.Int("max-kb", 4096, "largest per-rank payload in KiB")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		codecName = flag.String("codec", "fp16", "wire codec for the flattened exchange (fp32|fp16)")
		overlap   = flag.Bool("overlap", true, "use the two-phase overlapped exchange in R4c")
		simFLOPS  = flag.Float64("sim-flops", 1e9, "virtual FLOP/s of compute hidden inside the R4c overlap window")
	)
	flag.Parse()
	codec, err := mpi.ParseCodec(*codecName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	nodes := (*ranks + *rpn - 1) / *rpn
	sns := (nodes + *perSN - 1) / *perSN
	machine := sunway.TestMachine(sns, *perSN)
	topo := simnet.New(machine, *rpn)

	emit := func(t *metrics.Table) {
		if *csv {
			t.WriteCSV(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
		fmt.Println()
	}

	// R4: all-to-all algorithm comparison across message sizes.
	a2a := metrics.NewTable("R4: all-to-all virtual time (s) by algorithm",
		"bytes/rank", "direct", "pairwise", "hierarchical", "interSN-msgs-flat", "interSN-msgs-hier")
	for kb := *minKB; kb <= *maxKB; kb *= 4 {
		bytes := kb * 1024
		elems := bytes / 4 / *ranks
		if elems < 1 {
			elems = 1
		}
		td, _ := allToAll(*ranks, topo, elems, mpi.Direct)
		tp, mf := allToAll(*ranks, topo, elems, mpi.Pairwise)
		th, mh := allToAll(*ranks, topo, elems, mpi.Hierarchical)
		a2a.AddRow(kb*1024, td, tp, th, mf, mh)
	}
	emit(a2a)

	// R4c: the flattened MoE dispatch exchange — wire codec and
	// two-phase comm/compute overlap. Each rank sends equal chunks to
	// every peer through the hierarchical wire path and, in overlap
	// mode, runs a synthetic expert-compute window between the local
	// and remote receive legs so cross-supernode flight time hides.
	cfg := moe.CommConfig{Codec: codec, Overlap: *overlap}
	wt := metrics.NewTable(fmt.Sprintf("R4c: flattened exchange (%s)", cfg),
		"bytes/rank", "time-fp32-blocking", "time", "interSN-bytes-fp32", "interSN-bytes", "saved%")
	for kb := *minKB; kb <= *maxKB; kb *= 4 {
		elems := kb * 1024 / 4 / *ranks
		if elems < 1 {
			elems = 1
		}
		// The compute window an MoE layer would fill with local-expert
		// GEMMs, charged in both modes (after the exchange when
		// blocking, between the receive legs when overlapped) so the
		// time columns differ only by hidden flight time.
		window := 100 * float64(elems) / *simFLOPS
		run := func(c mpi.Codec, over bool) (float64, int64) {
			w := mpi.NewWorld(*ranks, topo)
			w.Run(func(cm *mpi.Comm) {
				counts := make([]int, *ranks)
				for d := range counts {
					counts[d] = elems
				}
				sb := mpi.NewSendBuf(counts)
				row := make([]float32, elems)
				for d := 0; d < *ranks; d++ {
					sb.Append(d, row)
				}
				var local, remote *mpi.RecvBuf
				if over {
					ex := cm.BeginExchange(mpi.Hierarchical, c)
					ex.PostAll(sb)
					ex.Flush()
					local = ex.RecvLocal()
					cm.Compute(window)
					remote = ex.RecvRemote()
				} else {
					local = cm.AllToAllvAlgo(mpi.Hierarchical, sb, c)
					cm.Compute(window)
				}
				local.Release()
				if remote != nil {
					remote.Release()
				}
				sb.Release()
			})
			return w.MaxTime(), w.Stats().BytesAt(simnet.MachineLevel)
		}
		base, baseBytes := run(mpi.FP32Wire, false)
		tc, cBytes := run(codec, *overlap)
		saved := 0.0
		if baseBytes > 0 {
			saved = 100 * (1 - float64(cBytes)/float64(baseBytes))
		}
		wt.AddRow(kb*1024, base, tc, baseBytes, cBytes, saved)
	}
	emit(wt)

	// R8: all-reduce algorithms across sizes.
	ar := metrics.NewTable("R8: all-reduce virtual time (s) by algorithm",
		"bytes", "ring", "hierarchical", "interSN-bytes-ring", "interSN-bytes-hier")
	for kb := *minKB; kb <= *maxKB; kb *= 4 {
		elems := kb * 1024 / 4
		run := func(f func(c *mpi.Comm, d []float32) []float32) (float64, int64) {
			w := mpi.NewWorld(*ranks, topo)
			w.Run(func(c *mpi.Comm) {
				f(c, make([]float32, elems))
			})
			return w.MaxTime(), w.Stats().BytesAt(simnet.MachineLevel)
		}
		tr, br := run(func(c *mpi.Comm, d []float32) []float32 { return c.AllReduceRing(d, mpi.OpSum) })
		th, bh := run(func(c *mpi.Comm, d []float32) []float32 { return c.AllReduceHier(d, mpi.OpSum) })
		ar.AddRow(kb*1024, tr, th, br, bh)
	}
	emit(ar)

	// R4b: all-to-all scaling with rank count at fixed payload.
	sc := metrics.NewTable("R4b: all-to-all time vs ranks (64 KiB/rank)",
		"ranks", "pairwise", "hierarchical", "speedup")
	for p := 8; p <= *ranks; p *= 2 {
		n := (p + *rpn - 1) / *rpn
		s := (n + *perSN - 1) / *perSN
		tp2 := simnet.New(sunway.TestMachine(s, *perSN), *rpn)
		elems := 64 * 1024 / 4 / p
		if elems < 1 {
			elems = 1
		}
		tpw, _ := allToAll(p, tp2, elems, mpi.Pairwise)
		thi, _ := allToAll(p, tp2, elems, mpi.Hierarchical)
		sc.AddRow(p, tpw, thi, tpw/thi)
	}
	emit(sc)
}

// allToAll runs one blocking FP32 all-to-allv of elems floats per rank
// pair with algo on a fresh p-rank world, returning the virtual time
// and the inter-supernode message count.
func allToAll(p int, topo *simnet.Topology, elems int, algo mpi.Algo) (float64, int64) {
	w := mpi.NewWorld(p, topo)
	w.Run(func(c *mpi.Comm) {
		counts := make([]int, p)
		for d := range counts {
			counts[d] = elems
		}
		sb := mpi.NewSendBuf(counts)
		c.AllToAllvAlgo(algo, sb, mpi.FP32Wire).Release()
		sb.Release()
	})
	return w.MaxTime(), w.Stats().MsgsAt(simnet.MachineLevel)
}
