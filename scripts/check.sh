#!/bin/sh
# check.sh — the full local verification gate: vet, build, tests, and the
# race detector over the internal packages (where all the concurrency
# lives). CI and the tier-1 verify in ROADMAP.md run the same steps; use
# `make check` or run this directly before sending a change.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test ./...
# perfbench/ is its own module (the wall-clock benchmark), so the root
# ./... patterns above do not reach it; vet and test it explicitly.
go -C perfbench vet ./...
go -C perfbench test ./...
# Race pass over every concurrency-bearing package: the internals, the
# GA and MP layers, and the conformance harness (-short trims its sweep
# to the sim-fabric matrix).
go test -race -short ./internal/... ./ga ./mp
# The reliability suite (loss, retransmission, crash, op deadlines) and
# the lease-lock recovery tests under the race detector; -short keeps the
# long soak out of this pass — run it with `make soak`.
go test -race -short -run 'Fault|Loss|Crash|Lease' .
# The async-completion layer under the race detector: Nb* handles,
# put-with-flag, and the per-destination coalescer, on the concurrent
# fabrics where handle state and batched frames cross goroutines.
go test -race -short -run 'Coalesc|Handle|Flag|Batch|Nb' .
# The generated workloads (internal/workload, covered by the internal
# race pass above) driven end-to-end: per-rank fingerprint parity of
# the generated programs across sim seeds and the concurrent fabrics,
# under the race detector.
go test -race -run 'WorkloadFingerprintParity' .
# The topology-aware collectives (k-nomial tree, hierarchical two-level
# barrier, NIC-offload fence) under the race detector: the tree
# constructions in internal/collective plus the end-to-end barrier
# parity tests on the concurrent fabrics.
go test -race -run 'Knomial|Hierarchical|Topology' ./internal/collective .
# The elastic subsystem under the race detector: membership views,
# Space replication, the deterministic recovery tests on the concurrent
# fabrics, and the rejoin-time lease restamp.
go test -race -run 'Elastic|RepairLeases' . ./internal/proc
# The multi-process smoke: a 4-rank smoke-sized Fig. 7 point through
# armci-run — real OS processes, rendezvous, routed puts, clean drain.
go run ./cmd/armci-run -n 4 -workload fig7-small
# The elastic smoke: the same 4-rank launch with one worker killed
# mid-epoch and recovered by respawn; the launcher verifies every rank's
# fingerprint (the respawned one included) against the pure-replay
# oracle, so a lost or duplicated op fails the gate.
go run ./cmd/armci-run -n 4 -workload elastic -elastic -faults crashrank=1@3
# The benchmark-regression gate against the committed BENCH_*.json
# baseline. -quick judges only the deterministic metrics (simulated
# virtual times, allocation budgets, sweep event counts), so this pass
# cannot flake on a loaded machine; run `make benchcheck` for the full
# comparison including wall-clock metrics.
sh scripts/benchdiff.sh -quick
