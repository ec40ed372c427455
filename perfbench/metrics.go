package main

import "fmt"

// Clocks. Host metrics are what the Go code costs on this machine;
// sim metrics are virtual seconds of the modelled Sunway machine and
// are deterministic for a seed; the rest are counts and ratios.
const (
	clockHost = "host"
	clockSim  = "sim"
	clockNone = "none"
)

// spec names one metric and its unit.
type spec struct {
	name, unit, clock string
}

// endToEnd is the --trace 0 metric set. Every workload reports every
// one of them, and none is ever 0.
var endToEnd = []spec{
	{"setup_s", "s", clockHost},
	{"host_tokens_per_s", "tok/s", clockHost},
	{"host_step_ms_p50", "ms", clockHost},
	{"host_step_ms_p90", "ms", clockHost},
	{"host_allocs_per_token", "allocs", clockHost},
	{"host_alloc_bytes_per_token", "B", clockHost},
	{"peak_heap_mib", "MiB", clockHost},
	{"sim_tokens_per_s", "tok/simsec", clockSim},
}

// serveRates is the fixed ladder of offered loads (requests per
// virtual second) serve-moe replays its stream at.
var serveRates = []float64{2, 4, 8, 16}

// perLayer is the --trace 1 metric set: per-layer readouts, profile
// shares and probes, plus the workload-specific results that do not
// apply to every workload (0 where they do not apply).
func perLayer() []spec {
	s := []spec{
		{"loss_final", "nats", clockNone},
		{"error_rate", "ratio", clockNone},
		{"host_step_samples", "count", clockNone},
		{"trace_overhead", "ratio", clockHost},
		{"sim_step_s", "simsec", clockSim},
		{"sim_ttft_p50_s", "simsec", clockSim},
		{"sim_ttft_p99_s", "simsec", clockSim},
		{"sim_tpot_p50_s", "simsec", clockSim},
		{"sim_tpot_p99_s", "simsec", clockSim},
		{"sim_max_rate_rps", "req/simsec", clockSim},
	}
	for _, l := range layers {
		s = append(s, spec{l + ".self_ms_per_step", "ms", clockHost})
	}
	s = append(s,
		spec{"tensor.transA_share", "ratio", clockHost},
		spec{"tensor.tiled_share", "ratio", clockHost},
		spec{"tensor.naive_share", "ratio", clockHost},
		spec{"runtime.alloc_gc_share", "ratio", clockHost},
	)
	for _, k := range gemmProbes {
		s = append(s, spec{"tensor." + k + "_gflops", "GFLOP/s", clockHost})
	}
	for _, p := range []string{"gate", "dispatch", "expert", "combine"} {
		s = append(s, spec{"moe." + p + "_ms", "ms", clockHost})
	}
	s = append(s,
		spec{"moe.expert_imbalance", "ratio", clockNone},
		spec{"moe.gate_route_us", "us", clockHost},
		spec{"mpi.bytes_per_step.node", "B", clockNone},
		spec{"mpi.bytes_per_step.sn", "B", clockNone},
		spec{"mpi.bytes_per_step.machine", "B", clockNone},
		spec{"mpi.msgs_per_step", "count", clockNone},
		spec{"mpi.wire_codec_ratio", "ratio", clockNone},
	)
	for _, op := range collectiveProbes {
		s = append(s, spec{"mpi." + op + "_us", "us", clockHost}, spec{"mpi." + op + "_sim_s", "simsec", clockSim})
	}
	s = append(s,
		spec{"parallel.grad_sync_sim_s", "simsec", clockSim},
		spec{"parallel.optimizer_shard_sim_s", "simsec", clockSim},
		spec{"parallel.param_gather_sim_s", "simsec", clockSim},
		spec{"parallel.bubble_sim_s", "simsec", clockSim},
		spec{"parallel.bubble_share", "ratio", clockSim},
		spec{"parallel.sim_unattributed_s", "simsec", clockSim},
		spec{"train.opt_state_bytes_per_rank", "B", clockNone},
		spec{"train.skipped_steps", "count", clockNone},
		spec{"train.adam_step_ms", "ms", clockHost},
	)
	for _, r := range serveRates {
		p := fmt.Sprintf("serve.rate%g.", r)
		s = append(s,
			spec{p + "tokens_per_step", "tok", clockNone},
			spec{p + "peak_kv_tokens", "tok", clockNone},
			spec{p + "completed", "count", clockNone},
			spec{p + "rejected", "count", clockNone},
			spec{p + "e2e_p99_s", "simsec", clockSim},
		)
	}
	return append(s,
		spec{"serve.generator_lateness_s", "simsec", clockSim},
		spec{"nn.infer_step_us", "us", clockHost},
		spec{"data.batch_us", "us", clockHost},
	)
}
