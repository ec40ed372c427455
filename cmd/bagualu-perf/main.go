// Command bagualu-perf regenerates the full-machine analytic
// experiments: the model-configuration table (R1) and the projection
// of sustained training performance on the 96,000-node / 37-million-
// core New Generation Sunway (R7), including the paper's headline
// mixed-precision EFLOPS figure.
package main

import (
	"flag"
	"fmt"
	"os"

	"bagualu/internal/metrics"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
)

func main() {
	var (
		eff   = flag.Float64("efficiency", 0.35, "sustained fraction of node peak for GEMM kernels")
		batch = flag.Int("batch", 4, "sequences per rank per step")
		csv   = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()

	machine := sunway.NewGenerationSunway()
	fmt.Println(machine)
	fmt.Println()

	emit := func(t *metrics.Table) {
		if *csv {
			t.WriteCSV(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
		fmt.Println()
	}

	// R1: model configuration table.
	cfgs := metrics.NewTable("R1: brain-scale model configurations (reconstructed)",
		"model", "dim", "layers", "moe-layers", "experts/layer", "params", "active/token")
	for _, s := range perfmodel.BrainScaleSpecs() {
		cfgs.AddRow(s.Name, s.Dim, s.Layers, s.MoELayers(), s.NumExperts,
			fmt.Sprintf("%.3gT", float64(s.TotalParams())/1e12),
			fmt.Sprintf("%.3gB", float64(s.ActiveParamsPerToken())/1e9))
	}
	emit(cfgs)

	// R7: full-machine projection per precision and model.
	proj := metrics.NewTable("R7: full-machine projection (96,000 nodes, hierarchical a2a, ZeRO)",
		"model", "precision", "step-time(s)", "compute(s)", "a2a(s)", "sync(s)",
		"tokens/s", "sustained", "peak-frac", "mem/node(GiB)", "fits")
	for _, spec := range perfmodel.BrainScaleSpecs() {
		for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
			// EP must divide both the rank count and the expert
			// count; the remaining ranks form data-parallel replicas.
			ep := gcd(machine.Nodes(), spec.NumExperts)
			d := perfmodel.Deployment{
				Machine:        machine,
				RanksPerNode:   1,
				DataParallel:   machine.Nodes() / ep,
				ExpertParallel: ep,
				BatchPerRank:   *batch,
				Precision:      prec,
				Efficiency:     *eff,
				A2A:            perfmodel.A2AHierarchical,
				ZeRO:           true,
				OverlapSync:    true,
			}
			rep, err := d.PredictStep(spec, perfmodel.FaultModel{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: %v\n", spec.Name, prec, err)
				continue
			}
			proj.AddRow(spec.Name, prec.String(),
				rep.StepTime, rep.DenseCompute+rep.ExpertCompute, rep.A2A, rep.Sync,
				fmt.Sprintf("%.3g", rep.TokensPerSec),
				fmt.Sprintf("%.3g FLOPS (%.2f EFLOPS)", rep.SustainedFlops, rep.SustainedFlops/1e18),
				fmt.Sprintf("%.1f%%", 100*rep.PeakFraction),
				fmt.Sprintf("%.1f", rep.Mem.TotalGiB), rep.Mem.Fits)
		}
	}
	emit(proj)

	// Ablation: flat vs hierarchical all-to-all at full machine scale.
	abl := metrics.NewTable("R7b: a2a strategy ablation (174T, mixed precision)",
		"a2a", "step-time(s)", "a2a-time(s)", "sustained-EFLOPS")
	spec := perfmodel.BrainScaleSpecs()[2]
	for _, a := range []perfmodel.A2AStrategy{perfmodel.A2AFlat, perfmodel.A2AHierarchical} {
		d := perfmodel.Deployment{
			Machine: machine, RanksPerNode: 1, DataParallel: 1,
			ExpertParallel: machine.Nodes(), BatchPerRank: *batch,
			Precision: sunway.Mixed, Efficiency: *eff, A2A: a, ZeRO: true,
			OverlapSync: true,
		}
		rep, err := d.PredictStep(spec, perfmodel.FaultModel{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		abl.AddRow(a.String(), rep.StepTime, rep.A2A, rep.SustainedFlops/1e18)
	}
	emit(abl)

	// R2-proj: weak scaling of the 1.93T model from 1,500 to 96,000
	// nodes (experts scale with the machine so per-node work is
	// constant — the paper's weak-scaling protocol).
	weak := metrics.NewTable("R2-proj: projected weak scaling, 1.93T-class model, mixed precision",
		"nodes", "cores", "experts", "step-time(s)", "tokens/s", "sustained-EFLOPS", "efficiency")
	base := 0.0
	spec2 := perfmodel.BrainScaleSpecs()[0]
	for _, nodes := range []int{1536, 6144, 24576, 96000} {
		m := sunway.NewGenerationSunway()
		m.Supernodes = nodes / m.NodesPerSupernode
		spec2.NumExperts = nodes // one expert per node: experts ∝ machine
		d := perfmodel.Deployment{
			Machine: m, RanksPerNode: 1, DataParallel: 1, ExpertParallel: nodes,
			BatchPerRank: *batch, Precision: sunway.Mixed, Efficiency: *eff,
			A2A: perfmodel.A2AHierarchical, ZeRO: true, OverlapSync: true,
		}
		rep, err := d.PredictStep(spec2, perfmodel.FaultModel{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		perNode := rep.TokensPerSec / float64(nodes)
		if base == 0 {
			base = perNode
		}
		weak.AddRow(nodes, m.Cores(), spec2.NumExperts, rep.StepTime,
			fmt.Sprintf("%.3g", rep.TokensPerSec),
			fmt.Sprintf("%.2f", rep.SustainedFlops/1e18),
			fmt.Sprintf("%.2f", perNode/base))
	}
	emit(weak)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
