#!/usr/bin/env bash
# Regenerates the benchmark records at the repo root:
#
#   BENCH_PAR.json     — serial-vs-parallel wall time and bitwise identity
#                        for the ln-par kernels (matmul, AAQ encode, full
#                        Evoformer block) at L in {256, 512, 1024}
#   BENCH_OBS.json     — per-event cost of the ln-obs primitives and the
#                        LN_OBS=off cost table: a gated counter with an
#                        unattached ln-watch branch, and the ln-scope
#                        ScopeHook wrapper, each against its bare loop
#   BENCH_INSIGHT.json — critical-path phase times from ln-insight and
#                        the roofline of ln-accel's LatencyReport
#   BENCH_CLUSTER.json — p50/p99 and SLO-attainment curves from the
#                        ln_serve::cluster shard sweep (1 -> 16 shards)
#   BENCH_WATCH.json   — ln-watch recorder and SLO-engine cost, SLO
#                        burn-rate fixture timings and breach counts, and
#                        the memory-vs-length watermark table
#   BENCH_NUMERICS.json — ln-scope on-mode observation cost, the
#                        pool-identity verdict, the measured sensitivity
#                        model and the per-layer precision ledger
#
# BENCH_INSIGHT.json and BENCH_CLUSTER.json hold modeled numbers only, so
# they are byte pins: ci.sh rewrites them on every run (steps 10 and 11)
# and fails if either differs from the committed file (step 12). The other
# four are one run's wall-clock numbers on the host that made them, not
# baselines: a speed claim is a set of same-host before/after pairs
# (EXPERIMENTS.md), and git keeps every committed record. Every bin here
# writes nothing when its own gate fails.
#
# Fully offline; respects LN_THREADS for the parallel pool size. Expect a
# long run on small machines — the L = 1024 Evoformer block alone is
# minutes of serial compute. Speedup > 1 is only expected on multi-core
# hosts; bit-identity must hold everywhere.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release -p ln-bench --bin par_speedup --bin obs_overhead --bin insight --bin cluster_scale --bin watch --bin numerics

./target/release/par_speedup
./target/release/obs_overhead
./target/release/cluster_scale
./target/release/watch
./target/release/numerics
./target/release/insight
