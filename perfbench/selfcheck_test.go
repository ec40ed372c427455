package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetricSets(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bf.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
}

// TestShortModeEmitsEveryMetric runs every workload at tiny sizes, traced,
// and checks the output checks pass, every metric is emitted with its
// unit, every end-to-end metric is measured and nonzero, and the
// deterministic half of the layer split the workloads were chosen for.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := measure(w, runConfig{seed: 1, short: true, trace: true})
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
			}
			for _, s := range endToEnd {
				if v := out.metrics[s.name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", s.name, v)
				}
			}
			for _, set := range [][]spec{endToEnd, perLayer()} {
				line, err := resultLine(out, set)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				for _, s := range set {
					if got, ok := res.Metrics[s.name]; !ok || got.Unit != s.unit {
						t.Errorf("%s: emitted %+v, want unit %s", s.name, got, s.unit)
					}
				}
			}
			m := out.metrics
			switch w.name {
			case "train-moe":
				if m["parallel.bubble_sim_s"] != 0 || m["moe.expert_ms"] <= 0 || m["mpi.wire_codec_ratio"] <= 0 {
					t.Errorf("train-moe: bubble %v, expert %v ms, codec ratio %v", m["parallel.bubble_sim_s"], m["moe.expert_ms"], m["mpi.wire_codec_ratio"])
				}
			case "train-pp-zero":
				if !(m["parallel.bubble_sim_s"] > 0) || !(m["parallel.param_gather_sim_s"] > 0) {
					t.Errorf("train-pp-zero: bubble %v, param gather %v", m["parallel.bubble_sim_s"], m["parallel.param_gather_sim_s"])
				}
				for name, v := range m {
					if strings.HasPrefix(name, "moe.") && v != 0 {
						t.Errorf("train-pp-zero: %s = %v, want 0", name, v)
					}
				}
			case "serve-moe":
				if !(m["sim_ttft_p99_s"] > 0) || !(m["sim_max_rate_rps"] > 0) || !(m["nn.infer_step_us"] > 0) {
					t.Errorf("serve-moe: ttft p99 %v, max rate %v, infer step %v us", m["sim_ttft_p99_s"], m["sim_max_rate_rps"], m["nn.infer_step_us"])
				}
			}
		})
	}
}
