#!/usr/bin/env bash
# Tier-1 gate for the LightNobel reproduction workspace.
#
# Runs, in order and failing fast, one `step` line per numbered step:
#   1. cargo fmt --check                                  (formatting)
#   2. cargo clippy --workspace --all-targets -D warnings (lints)
#   3. cargo build --release --workspace, then            (offline build)
#      every examples/*.rs, release, stdout discarded     (examples run)
#   4. cargo test -q, cargo test -q -p ln-ppm, then       (test suite)
#      cargo test -q --release --workspace
#   5. par_speedup --quick                                (kernel gate)
#   6. obs_overhead --quick                               (LN_OBS=off gate)
#   7. watch --quick                                      (ln-watch gate)
#   8. numerics --quick                                   (ln-scope gate)
#   9. chaos                                              (fault-plan gate)
#  10. insight, writes BENCH_INSIGHT.json                 (ln-insight gate)
#  11. cluster_scale, writes BENCH_CLUSTER.json           (cluster gate)
#  12. git diff --exit-code on those two records          (byte pins)
#  13. all_experiments, stdout discarded                  (paper artifacts)
#  14. foldbench: cargo test, run --quick, trace --quick  (benchmark smoke)
#      of fold_qdomain, fold_aaq and fold_long_chunked,
#      then git diff --exit-code on benchmarks/fold
#  15. cargo doc --workspace --no-deps, -D warnings       (rustdoc links)
#
# Step 3: `chaos_recovery` and `serving` are the only examples that drive
# FoldService's threads; `chaos_recovery` prints one injected panic to
# stderr, and that is expected.
#
# Step 4's first command tests the umbrella package in the debug profile,
# the only one in which the microkernel's zero-allocation `debug_assert`
# and the NaN-poisoned workspace `take`s are live under the integration
# tests (the kernel crates build at opt-level 3 there; see Cargo.toml).
# The second runs ln-ppm's own unit and integration tests in the same
# profile, so the stage drivers' block and lane index arithmetic runs with
# overflow checks and debug assertions on. The third runs every crate's unit, integration and doc tests in
# release, the only profile with the vectorised kernel bodies, so the
# bit-identity, pool-identity, golden-pin and fold-workspace tests check
# the code that ships. No test is behind a feature or `#[ignore]`d, and
# every test that sets the ln-obs level takes `ln_obs::pin_level`'s one
# process-wide lock. `tests/docs.rs` holds README + DESIGN + EXPERIMENTS
# under 160 000 bytes and fails on a citation that does not resolve,
# including a "ci.sh step N" past the last step line here.
#
# Every bench step passes its record through `ln_bench::emit`, which
# asserts it reads back as written. Steps 5-8 measure wall clock on this
# host and write nothing under --quick. Step 5 fails when a parallel
# kernel diverges bitwise from its serial run or when a speedup drops
# below the 0.95x floor at any pool size (pools are clamped to the host's
# cores; a noisy sample gets one bounded re-measure), and when the GEMM
# tile (`microkernel::gemm`, one thread, in the same process) differs in a
# bit from `reference_matmul` or, on the avx2 tier, runs less than 8x its
# speed at (96, 128, 128) or (1024, 128, 128) — a tile compiled to scalar
# code reads about 3x; the baseline tier prints a skip line. Step 6 is the one
# LN_OBS=off gate: through `ln_bench::off_mode_cost` (reps interleaved,
# median pair ratio, stack depth rotated per pair, one re-measure of a
# miss) it fails if any off-mode
# path costs more than 5 % over its bare loop — a gated ln-obs counter
# with the serving path's branch on an unattached ln-watch, and the
# ln-scope `ScopeHook` around the AAQ hook. Step 7 fails if the steady SLO
# burn fixture breaches, the burst fixture never does, or the modeled
# peak-activation watermark stops shrinking FP32 -> INT8 -> INT4 at L >=
# 1024. Step 8 fails if the golden CAMEO fold's numerics snapshots differ
# across ln-par pools {1, 2, 4} or its precision ledger comes back empty.
#
# Steps 9-12 run in virtual time, in milliseconds, on the host's default
# pool. Step 9 runs the golden chaos scenario (`ln_serve::fault::
# GoldenChaos`) twice and fails if a request goes unanswered, the runs
# differ, or the giant request does not complete at INT4. Step 10 replays
# the same scenario's trace through the critical-path analyzer and fails on
# an unattributed span or a truncated trace ring. Step 11 sweeps 1 -> 16
# shards and fails if a request goes unanswered, a merged trace leaves a
# span unattributed, or p99 does not fall 1 -> 4 -> 16. Every number those
# two records hold is modeled, so step 12 holds them byte for byte: a
# changed schedule, or a result that depends on the pool size this host
# gives, fails here. Pool identity at pools 1/2/4 is the integration
# tests' (tests/chaos.rs, tests/obs_trace.rs, tests/cluster.rs).
#
# Step 13 runs the nineteen paper-artifact bins (fig*, tab*, ablate_*,
# extend_h200), analytic and run by no other step. Step 14 builds the
# repo's benchmark (benchmarks/fold, outside the workspace), runs its unit
# tests, folds every workload once at L = 32 under its own checks, and
# traces three workloads (the decomposed fold equals `predict_with_hook`,
# the nproc-pool fold equals the pool-1 fold, `ppm.unattributed_s` stays
# within 1 %); last it fails if anything rewrote a tracked file under
# benchmarks/fold, whose lock records the edges of the crates foldbench
# reaches. Step 15 fails on a rustdoc link to a deleted, private or
# ambiguous item.
#
# No step compares wall-clock numbers across sessions: a speed claim is a
# set of same-host before/after pairs (EXPERIMENTS.md). The workspace is
# dependency-free: everything here passes with zero network access.

set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo
    echo "==> $*"
    "$@"
}

# --workspace so the member crates' bins are built: a bare `cargo build`
# in a workspace with a root package builds only that package, and steps
# 5-13 would then run stale binaries.
build_and_run_examples() {
    cargo build --release --workspace
    for ex in examples/*.rs; do
        cargo run -q --release --example "$(basename "$ex" .rs)" >/dev/null
    done
}

test_debug_then_release() {
    cargo test -q
    cargo test -q -p ln-ppm
    cargo test -q --release --workspace
}

foldbench_smoke() {
    local manifest=benchmarks/fold/Cargo.toml
    cargo test --offline --release --manifest-path $manifest
    cargo run --offline --release --manifest-path $manifest -- run --quick
    for workload in fold_qdomain fold_aaq fold_long_chunked; do
        cargo run --offline --release --manifest-path $manifest -- trace --workload $workload --quick
    done
    git diff --exit-code --stat -- benchmarks/fold
}

step cargo fmt --all -- --check
step cargo clippy --workspace --all-targets -- -D warnings
step build_and_run_examples
step test_debug_then_release
step ./target/release/par_speedup --quick
step ./target/release/obs_overhead --quick
step ./target/release/watch --quick
step ./target/release/numerics --quick
step ./target/release/chaos
step ./target/release/insight
step ./target/release/cluster_scale
step git diff --exit-code -- BENCH_INSIGHT.json BENCH_CLUSTER.json
step sh -c './target/release/all_experiments >/dev/null'
step foldbench_smoke
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo
echo "ci.sh: all tier-1 checks passed"
