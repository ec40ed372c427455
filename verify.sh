#!/bin/sh
# Repo verification gate: build, vet, the full test suite, then the
# whole suite again under the race detector (buffer pool / persistent
# workers, simulated MPI runtime, the two-phase MoE exchange, the
# trainers, fault tolerance, serving, autotuning and pipelining all
# run concurrent goroutines), then the replay, byte-identity and fuzz
# gates below.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./...
# Deterministic replay: the same seed must reproduce the same fault
# schedule and the same wire-fault pattern, run after run — and the
# full tiered run (retransmits, mitigations, final loss) must replay
# identically under the scripted injector.
go test -count=2 -run 'TestFaultScheduleDeterministic|TestArmedWireFaultsFire' ./internal/fault/
go test -count=2 -run 'TestEscalationDeterministicReplay' ./internal/parallel/
# Serving gate: the R13 seeded-replay property must hold — a full
# 4-rank fp16 overlapped serving run reproduces every counter and
# latency quantile exactly, run after run.
go test -count=2 -run 'TestServeDeterministicReplay' ./internal/serve/
# Serving-fleet gates (R18): the seeded fleet replay must pin every
# counter, quantile, and token digest (-count=2 catches cross-run
# state leaks); the health monitor's dwell
# time must bound flapping under oscillating samples; every token the
# faulty fleet serves must equal the fault-free single-replica decode;
# and two fleet CLI runs must emit byte-identical R18 tables.
go test -count=2 -run 'TestFleetDeterministicReplay' ./internal/serve/fleet/
go test -run 'TestFleetBitExactTokensUnderFaults|TestFleetFailoverZeroDrop' ./internal/serve/fleet/
go test -run 'TestMonitorDwellBoundsFlapping|TestMonitorResetClearsHistory' ./internal/health/
go build -o /tmp/bagualu-serve ./cmd/bagualu-serve
/tmp/bagualu-serve -fleet-only -replicas 4 -mtbf 30 -csv > /tmp/bagualu-fleet-a.csv
/tmp/bagualu-serve -fleet-only -replicas 4 -mtbf 30 -csv > /tmp/bagualu-fleet-b.csv
cmp /tmp/bagualu-fleet-a.csv /tmp/bagualu-fleet-b.csv
rm -f /tmp/bagualu-serve /tmp/bagualu-fleet-a.csv /tmp/bagualu-fleet-b.csv
# Dropless-MoE gate (R14): the grouped expert kernel must replay
# bitwise under the same seed, run after run.
go test -count=2 -run 'TestGroupedKernelDeterministicReplay' ./internal/tensor/
# GEMM bit-stability gate: every plain, batched and grouped entry point
# of the one GEMM driver must reproduce the output digests stored in
# internal/tensor/testdata, run after run.
go test -count=2 -run 'TestGemmGoldenDigests' ./internal/tensor/
# Single-rank MoE bit-stability gate: the one-rank layer's forward,
# input and parameter gradients, aux loss and inference output over
# every routing mode, plus the first BenchmarkTrainStep losses, must
# reproduce the digests stored in internal/moe/testdata, run after run.
go test -count=2 -run 'TestSingleRankMoEGoldenDigests' ./internal/moe/
# Memory-capacity gates (R15/R16): the sharded run must replay
# bitwise (same losses, same grad norms) run after run, and the
# capacity acceptance bounds must hold (>= 2x max trainable params
# under ZeRO, sync bytes no worse than the all-reduce).
go test -count=2 -run 'TestZeROBitExactVsUnsharded|TestZeRODeterministicReplay' ./internal/parallel/
go test -run 'TestZeROAtLeastDoublesMaxParams|TestMemoryLeversMonotone' ./internal/perfmodel/
# Deployment-autotuner gates (R17): the analytic-vs-measured agreement
# and the plan replay must be deterministic run after run (-count=2),
# and two bagualu-plan invocations with the same seed must emit
# byte-identical plans.
go test -count=2 -run 'TestPlanDeterministicReplay|TestPredictStepTracksMeasuredSimsec' ./internal/autotune/
go build -o /tmp/bagualu-plan ./cmd/bagualu-plan
/tmp/bagualu-plan -seed 7 -csv > /tmp/bagualu-plan-a.csv
/tmp/bagualu-plan -seed 7 -csv > /tmp/bagualu-plan-b.csv
cmp /tmp/bagualu-plan-a.csv /tmp/bagualu-plan-b.csv
rm -f /tmp/bagualu-plan /tmp/bagualu-plan-a.csv /tmp/bagualu-plan-b.csv
# Pipeline-parallel gates (R19): 1F1B must be bit-exact against the
# flat trainer and replay deterministically (-count=2 catches
# cross-run state leaks); the cross-layout checkpoint matrix (flat <->
# folded, Adam moments, ZeRO range shards, crash->shrink->restore into
# fewer stages) must hold; and two bagualu-pipe depth sweeps must emit
# byte-identical R19 tables.
go test -count=2 -run 'TestPipelineBitExactVsNoPP|TestPipelineDeterministicReplay' ./internal/parallel/
go test -run 'TestPipelineCrossLayoutRestore|TestPipelineZeROCrossLayoutRestore|TestPipelineCrashShrinkRestore' ./internal/parallel/
go build -o /tmp/bagualu-pipe ./cmd/bagualu-pipe
/tmp/bagualu-pipe -csv > /tmp/bagualu-pipe-a.csv
/tmp/bagualu-pipe -csv > /tmp/bagualu-pipe-b.csv
cmp /tmp/bagualu-pipe-a.csv /tmp/bagualu-pipe-b.csv
rm -f /tmp/bagualu-pipe /tmp/bagualu-pipe-a.csv /tmp/bagualu-pipe-b.csv
# All-to-all gates (R4): the one flattened all-to-all stack (direct,
# pairwise, hierarchical, Bruck) must hold its properties under a
# bounded native fuzz run (every algorithm x codec x receive mode
# matches Direct/FP32 and WireStats account every message), and two
# bagualu-comm invocations must emit byte-identical R4/R4b/R4c/R8
# tables.
go test -run '^$' -fuzz '^FuzzAllToAllv$' -fuzztime 10s ./internal/mpi/
go build -o /tmp/bagualu-comm ./cmd/bagualu-comm
/tmp/bagualu-comm -csv > /tmp/bagualu-comm-a.csv
/tmp/bagualu-comm -csv > /tmp/bagualu-comm-b.csv
cmp /tmp/bagualu-comm-a.csv /tmp/bagualu-comm-b.csv
rm -f /tmp/bagualu-comm /tmp/bagualu-comm-a.csv /tmp/bagualu-comm-b.csv
# Checkpoint-decoder gate: a bounded native fuzz run over LoadIntoCov
# (seeded with valid v1/v2/v3 streams and hostile headers) must never
# panic, exhaust memory, or accept a range outside its tensor.
go test -run '^$' -fuzz '^FuzzLoadIntoCov$' -fuzztime 10s ./internal/train/
# Checkpoint-manifest gate: a bounded native fuzz run over ReadManifest
# and Restore (seeded with a valid manifest and a zero-shard one) must
# never panic, and every rejection must be a *ckpt.ManifestError.
go test -run '^$' -fuzz '^FuzzReadManifest$' -fuzztime 10s ./internal/ckpt/
