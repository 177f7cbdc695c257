#!/usr/bin/env bash
# Tier-1 gate for the LightNobel reproduction workspace.
#
# Runs, in order and failing fast:
#   1. cargo fmt --check                                  (formatting)
#   2. cargo clippy --workspace --all-targets -D warnings (lints)
#   3. cargo build --release, then                        (offline build)
#      every examples/*.rs, release, stdout discarded     (examples run)
#   4. cargo test -q, then                                (test suite)
#      cargo test -q --release --workspace                (every crate, optimised)
#      tests/docs.rs among them: README + DESIGN +        (docs budget)
#      EXPERIMENTS <= 160 000 bytes, citations resolve
#   5. par_speedup --quick                                (kernel gate)
#   6. chaos --quick                                      (fault-plan smoke)
#   7. obs_overhead --quick                               (ln-obs cost gate)
#   8. insight --quick                                    (ln-insight gate)
#   9. cluster_scale --quick                              (cluster gate)
#  10. watch --quick                                      (ln-watch gate)
#  11. numerics --quick                                   (ln-scope gate)
#  12. all_experiments, stdout discarded                  (paper artifacts run)
#  13. foldbench: cargo test, run --quick, then           (benchmark smoke)
#      trace --workload fold_qdomain --quick,
#      trace --workload fold_aaq --quick,
#      trace --workload fold_long_chunked --quick, then
#      git diff --exit-code --stat -- benchmarks/fold     (its lock unmoved)
#  14. cargo doc --workspace --no-deps, -D warnings       (rustdoc links)
#
# Step 3's `chaos_recovery` and `serving` alone drive FoldService's threads.
# Step 4's first command, at the workspace root, tests only the umbrella
# package, in the debug profile: the only one in which the microkernel's
# zero-allocation `debug_assert` and the workspace's NaN-poisoned `take`s
# are live under the integration tests. The four kernel crates are built
# at `opt-level = 3` there (`[profile.dev.package.*]` in the root
# Cargo.toml; debug assertions and overflow checks stay on), which takes
# that pass from about nine minutes to under one. Its second runs the unit,
# integration and doc tests of every crate in the workspace, the umbrella
# package's again, in the release profile — the only profile in which the
# vectorised kernel bodies exist, so the bit-identity tests (both GEMM
# tile widths against the reference fold, `qgemm` against a scalar
# reference, `vmath` against `f64::exp` and a scalar lane reference,
# `bit_identity.rs`, `no_alloc.rs`), the row-blocked attention
# tests (a chunked unit, block and fold equal the unchunked ones to the
# bit, and their score taps fire) and the fold-workspace contract
# (`blocks/workspace.rs`, `crates/ppm/tests/large_allocs.rs`, which also
# pins the GEMM scratch arena) check the code that ships. The eight
# `pair_rep` hashes pinned in `tests/golden_regression.rs`, and their
# equality with the chunked folds, are checked in both profiles, with the
# two Fig. 13 baseline folds' hashes pinned beside them, and this is
# where every seeded property test runs — no test in the workspace is
# behind a feature or `#[ignore]`d (the Fig. 11 sweep,
# `dse::tests::paper_schemes_win_their_groups`, runs here). No crate is left
# out: every test that sets the `ln_obs` level does it through the one
# guard, `ln_obs::pin_level`, which holds one process-wide lock until it
# restores the level — in `ln-obs`, `ln-scope`, `ln-insight`, `ln-watch`
# and the root tests alike. About 75 s once step 3 has built the crates.
#
# Step 5 exits non-zero when a parallel kernel diverges bitwise from its
# serial execution OR when any kernel's speedup drops below the 0.95x
# floor at any pool size (a failing full run writes no BENCH_PAR.json, so
# a committed record clears the floor by construction) (pools are clamped to the host's cores, so the
# floor reads as "dispatch overhead <= 5%" and stays meaningful on
# single-core CI machines; a genuinely noisy sample gets one bounded
# re-measure before failing). The microkernel's zero-allocation inner-loop
# guard is a debug_assert on a per-thread arena counter, so it runs under
# the debug-profile `cargo test` of step 4 (every matmul the integration
# tests make goes through the dispatched tile loops it wraps), not here.
# Step 6 drives a fixed-seed FaultPlan through the virtual-time engine and
# exits non-zero if any request hangs or the resilience stats are not
# byte-identical across two runs. Step 7 measures the LN_OBS=off
# instrumentation path against an uninstrumented baseline loop through
# `ln_bench::off_mode_cost`, the one off-mode rule (reps interleaved, best
# rep per side, one bounded re-measure of a miss, 5% budget), and exits
# non-zero if the overhead is over budget. Step 8 replays a traced chaos
# run through the critical-path analyzer, prints the roofline of one
# simulated accelerator run (ln-accel's LatencyReport), and exits non-zero
# on any trace span the replay cannot attribute or on a truncated trace
# ring. No step compares wall-clock numbers across sessions: a speed claim
# is a set of same-host before/after pairs (EXPERIMENTS.md). Step 9 sweeps 1/4/16-shard clusters over one
# workload and exits non-zero if the outcome fingerprint diverges across
# ln-par pools {1, 2, 4}, if a sweep point answers fewer requests than the
# workload holds (the router's own check is a debug_assert, compiled out
# here), if the merged cluster trace leaves any span unattributed, or if
# p99 fails to improve monotonically with the shard count. Step 10
# measures the LN_OBS=off serving hot path with the watch compiled in but
# not attached (one branch + one gated counter, through step 7's
# off_mode_cost rule), replays the deterministic SLO burn-rate fixtures,
# and exits non-zero if the steady fixture breaches, the burst fixture
# fails to breach, or the modeled peak-activation watermark stops
# shrinking monotonically FP32 -> INT8 -> INT4 at L >= 1024. Step 11
# measures the LN_OBS=off cost of wrapping the AAQ hook in the ln-scope
# observatory (one branch per tap, through the same off_mode_cost rule),
# re-runs the golden CAMEO fold under ln-par pools {1, 2, 4}, and exits
# non-zero if the numerics snapshots are not byte-identical across pools
# or the precision ledger comes back empty. Steps 5 and 7-11 also pass
# their document through `ln_bench::emit`, which asserts it reads back as
# written, and writes nothing under --quick.
# Step 12 executes the nineteen paper-artifact bins (every fig*, tab*,
# ablate_*, extend_h200) — analytic, ~2 minutes, and run by no other gate —
# so one that panics or fails an internal assert fails here. Step 13
# builds the repo's benchmark (benchmarks/fold,
# a package outside the workspace, so steps 2-4 never see it), runs its own
# unit tests, and folds every workload once at L = 32 with the benchmark's
# own checks on each fold (TM-score against the FP32 reference, finite
# coordinates); it exits non-zero on any CHECK FAILED. It then traces the
# quantized-domain workload once, which puts the integer `qgemm` path and
# the trunk's one encoding of each post-LN activation under the traced
# run's checks: the decomposed fold equals `predict_with_hook`, the
# nproc-pool fold equals the pool-1 fold and `ppm.unattributed_s` stays
# within 1 % (it also prints the exact `quant.qgemm_calls`). It traces the
# fake-quant workload the same way, so the vector quantizer every tap
# rewrites through runs under the same three checks, and the long
# workload, so a `NoopHook` fold — the lane-parallel triangular-attention
# driver and triangular multiplication's row-blocked, transposed-Incoming
# dataflow — does too. Last, it
# fails if any of that rewrote a tracked file under benchmarks/fold, and
# names the file in its log: the lock there records the dependency edges
# of the thirteen crates foldbench reaches, so a PR that changes one of
# them shows up here, not at review.
# Step 14 builds every crate's API docs with rustdoc warnings as errors: a
# link to an item that was deleted, renamed or is private, or a link that
# names two items, fails here instead of rendering as plain text.
#
# The workspace is dependency-free on purpose: everything here must pass
# with zero network access. See ROADMAP.md ("Tier-1 gate script").

set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check
step cargo clippy --workspace --all-targets -- -D warnings
# --workspace so the member crates' bins (the --quick gates below) are
# actually built: a bare `cargo build` in a workspace with a root package
# builds only that package, and steps 5-12 would then depend on stale
# target/ artifacts from earlier runs.
step cargo build --release --workspace
step sh -c 'for ex in examples/*.rs; do cargo run -q --release --example "$(basename "$ex" .rs)" >/dev/null || exit 1; done'
step cargo test -q
step cargo test -q --release --workspace
step ./target/release/par_speedup --quick
step ./target/release/chaos --quick
step ./target/release/obs_overhead --quick
step ./target/release/insight --quick
step ./target/release/cluster_scale --quick
step ./target/release/watch --quick
step ./target/release/numerics --quick
step sh -c './target/release/all_experiments >/dev/null'
step cargo test --offline --release --manifest-path benchmarks/fold/Cargo.toml
step cargo run --offline --release --manifest-path benchmarks/fold/Cargo.toml -- run --quick
step cargo run --offline --release --manifest-path benchmarks/fold/Cargo.toml -- trace --workload fold_qdomain --quick
step cargo run --offline --release --manifest-path benchmarks/fold/Cargo.toml -- trace --workload fold_aaq --quick
step cargo run --offline --release --manifest-path benchmarks/fold/Cargo.toml -- trace --workload fold_long_chunked --quick
step git diff --exit-code --stat -- benchmarks/fold
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo
echo "ci.sh: all tier-1 checks passed"
