#!/bin/sh
# Repo verification gate: build, vet, full test suite, then the race
# detector over the packages with concurrency-sensitive hot paths
# (buffer pool / persistent workers, simulated MPI runtime, the
# two-phase MoE exchange, the trainer that drives it, and the
# fault-tolerance stack: injector, sharded async checkpointing, and the
# in-run recovery loop).
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./internal/tensor/... ./internal/mpi/... ./internal/moe/... ./internal/train/...
go test -race ./internal/fault/... ./internal/ckpt/... ./internal/health/...
go test -race -run 'TestCrashRecoveryMatchesRestart|TestRepeatedRecovery|TestGoodputAccounting' ./internal/parallel/
# Graceful-degradation gates: the reliable transport must survive the
# race detector under loss, and the escalation tiers must hold their
# acceptance properties (retransmission is loss-transparent and
# bit-exact, straggler mitigation beats no mitigation, tiered beats
# always-rollback and retransmit-only).
go test -race -run 'Transport|Reliable|LinkObservations' ./internal/mpi/
go test -race -run 'TestRetransmitTierBitExactLoss|TestStragglerMitigationImprovesMakespan|TestTieredEscalationBeatsAlternatives' ./internal/parallel/
# Deterministic replay: the same seed must reproduce the same fault
# schedule and the same wire-fault pattern, run after run — and the
# full tiered run (retransmits, mitigations, final loss) must replay
# identically under the scripted injector.
go test -count=2 -run 'TestFaultScheduleDeterministic|TestArmedWireFaultsFire' ./internal/fault/
go test -count=2 -run 'TestEscalationDeterministicReplay' ./internal/parallel/
# Serving gates: the inference engine (KV decode, continuous batching,
# admission) must survive the race detector, and the R13 seeded-replay
# property must hold — a full 4-rank fp16 overlapped serving run
# reproduces every counter and latency quantile exactly, run after run.
go test -race ./internal/serve/...
go test -count=2 -run 'TestServeDeterministicReplay' ./internal/serve/
# Serving-fleet gates (R18): the replicated fleet (router, failover,
# hedging, restore+probe) must survive the race detector; the seeded
# fleet replay must pin every counter, quantile, and token digest
# (-count=2 catches cross-run state leaks); the health monitor's dwell
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
# Dropless-MoE gates (R14): the race detector must hold over the
# dropless/expert-choice routing paths and the grouped expert kernel
# (worker-parallel panel packing), and the grouped kernel must replay
# bitwise under the same seed, run after run.
go test -race -run 'Dropless|ExpertChoice|Grouped|ExpertGroup|TestInferRouteMatchesForward' ./internal/moe/ ./internal/nn/ ./internal/tensor/
go test -count=2 -run 'TestGroupedKernelDeterministicReplay' ./internal/tensor/
# GEMM bit-stability gate: every plain, batched and grouped entry point
# of the one GEMM driver must reproduce the output digests stored in
# internal/tensor/testdata, run after run.
go test -count=2 -run 'TestGemmGoldenDigests' ./internal/tensor/
# Memory-capacity gates (R15/R16): the ZeRO-sharded optimizer and its
# shard collectives must survive the race detector, the sharded run
# must replay bitwise (same losses, same grad norms) run after run,
# and the capacity acceptance bounds must hold (>= 2x max trainable
# params under ZeRO, sync bytes no worse than the all-reduce).
go test -race -run 'Shard|ReduceScatter|AllGatherShard' ./internal/mpi/
go test -race -run 'ZeRO|SelectiveRecompute|Sharded' ./internal/parallel/ ./internal/train/
go test -count=2 -run 'TestZeROBitExactVsUnsharded|TestZeRODeterministicReplay' ./internal/parallel/
go test -run 'TestZeROAtLeastDoublesMaxParams|TestMemoryLeversMonotone' ./internal/perfmodel/
# Deployment-autotuner gates (R17): the autotune pipeline must survive
# the race detector, the analytic-vs-measured agreement and the plan
# replay must be deterministic run after run (-count=2), and two
# bagualu-plan invocations with the same seed must emit byte-identical
# plans.
go test -race ./internal/autotune/...
go test -count=2 -run 'TestPlanDeterministicReplay|TestPredictStepTracksMeasuredSimsec' ./internal/autotune/
go build -o /tmp/bagualu-plan ./cmd/bagualu-plan
/tmp/bagualu-plan -seed 7 -csv > /tmp/bagualu-plan-a.csv
/tmp/bagualu-plan -seed 7 -csv > /tmp/bagualu-plan-b.csv
cmp /tmp/bagualu-plan-a.csv /tmp/bagualu-plan-b.csv
rm -f /tmp/bagualu-plan /tmp/bagualu-plan-a.csv /tmp/bagualu-plan-b.csv
# Pipeline-parallel gates (R19): the schedule generators, layout
# folding, and the pipelined engine must survive the race detector;
# 1F1B must be bit-exact against the flat trainer and replay
# deterministically (-count=2 catches cross-run state leaks); the
# cross-layout checkpoint matrix (flat <-> folded, Adam moments, ZeRO
# range shards, crash->shrink->restore into fewer stages) must hold;
# and two bagualu-pipe depth sweeps must emit byte-identical R19
# tables.
go test -race ./internal/parallel/pipe/ ./internal/parallel/layout/
go test -race -run 'TestPipeline' ./internal/parallel/
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
