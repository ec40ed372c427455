// brain_scale: a walkthrough of how BaGuaLu reaches 174 trillion
// parameters on 37 million cores — the memory arithmetic, the role of
// mixed precision and optimizer-state sharding, and the projected
// sustained performance, using the analytic machine model.
//
//	go run ./examples/brain_scale
package main

import (
	"fmt"
	"log"

	"bagualu"
)

func main() {
	machine := bagualu.NewGenerationSunway()
	fmt.Println("machine:", machine)
	fmt.Printf("  half-precision peak: %.2f EFLOPS\n", machine.PeakFlopsFP16()/1e18)
	fmt.Printf("  aggregate memory:    %.0f TiB\n\n", machine.TotalMemGiB()/1024)

	for _, spec := range bagualu.BrainScaleSpecs() {
		fmt.Println(spec)
		fmt.Printf("  dense (replicated) params: %.3g\n", float64(spec.DenseParams()))
		fmt.Printf("  expert (sharded) params:   %.3g (%.1f%% of total)\n",
			float64(spec.ExpertParamsTotal()),
			100*float64(spec.ExpertParamsTotal())/float64(spec.TotalParams()))

		ep := gcd(machine.Nodes(), spec.NumExperts)
		dep := bagualu.Deployment{
			Machine:        machine,
			RanksPerNode:   1,
			DataParallel:   machine.Nodes() / ep,
			ExpertParallel: ep,
			BatchPerRank:   4,
			Precision:      bagualu.Mixed,
			Efficiency:     0.35,
			ZeRO:           true,
			OverlapSync:    true,
		}
		dep.A2A = bagualu.ProjA2AHierarchical
		rep, err := dep.PredictStep(spec, bagualu.FaultModel{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  mixed precision, ZeRO, hierarchical a2a:\n")
		fmt.Printf("    memory/node %.1f GiB (budget %.0f) fits=%v\n",
			rep.Mem.TotalGiB, machine.NodeMemGiB, rep.Mem.Fits)
		fmt.Printf("    step %.2fs = compute %.2fs + a2a %.2fs (+ sync %.2fs overlapped)\n",
			rep.StepTime, rep.DenseCompute+rep.ExpertCompute, rep.A2A, rep.Sync)
		fmt.Printf("    sustained %.2f EFLOPS (%.0f%% of mixed peak)\n\n",
			rep.SustainedFlops/1e18, 100*rep.PeakFraction)

		// Show why mixed precision is load-bearing at 174T.
		if spec.TotalParams() > 100e12 {
			dep.Precision = bagualu.FP32
			r32, err := dep.PredictStep(spec, bagualu.FaultModel{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  the same model in pure FP32: %.1f GiB/node -> fits=%v\n",
				r32.Mem.TotalGiB, r32.Mem.Fits)
			fmt.Println("  => mixed precision is not an optimization here; it is what")
			fmt.Println("     makes the 174T configuration representable at all.")
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
