//! Serial-vs-parallel wall time for the ln-par-driven kernels: the
//! register-tiled matmul, token-wise AAQ encode, and one full Evoformer
//! (folding) block.
//!
//! Every phase runs the *same* kernels under pinned pools of 1, 2+, and 4
//! threads, and every result is compared bit for bit — the whole point of
//! ln-par's ownership-per-row design. Since the kernel-fusion rework this
//! bench is a **hard gate**: any kernel whose worst speedup (at any pool
//! size, any L) drops below [`SPEEDUP_FLOOR`] fails the run, in quick
//! *and* full mode. On a single-core host that still means something real:
//! the pool must cost at most ~5% over serial, which is precisely the
//! regression ("0.598× at L=1024") this gate exists to keep dead.
//!
//! Only a passing full run writes `BENCH_PAR.json` at the repo root (with
//! `pool4` and `profile` sections), so a committed record clears the floor
//! by construction.
//! `--profile` prints per-kernel GFLOP/s next to the paper-hardware
//! roofline ceilings.
//!
//! A second gate, in both modes, times the GEMM tile itself: on the AVX2
//! tier, one-thread `microkernel::gemm` must run at least [`TILE_FLOOR`]
//! times faster than the scalar `reference_matmul` at the trunk's shapes
//! (and match it bit for bit). A tile that compiles to scalar code reads
//! about 3x, and the pool gate above, a ratio of two runs of the same
//! tile, cannot see it. The baseline tier prints a skip line.

use std::time::Instant;

use ln_accel::HwConfig;
use ln_bench::{banner, emit, paper_note, show};
use ln_insight::json::{obj, Value};
use ln_par::{with_pool, Pool};
use ln_ppm::blocks::FoldingBlock;
use ln_ppm::cost::{CostModel, ALL_STAGES};
use ln_ppm::taps::NoopHook;
use ln_ppm::PpmConfig;
use ln_quant::scheme::QuantScheme;
use ln_quant::token::fake_quantize_tokens;
use ln_tensor::{Tensor2, Tensor3};

use lightnobel::report::{fmt_ratio, fmt_seconds, Table};

/// Least speed of the GEMM tile over the scalar reference loop on the AVX2
/// tier. The vectorised tile measured 22–26x on a 2-vCPU AVX2 host; a
/// tile whose accumulators left the registers read about 3x.
const TILE_FLOOR: f64 = 8.0;

/// Hard floor on per-kernel speedup at every pool size and every L.
///
/// Promoted from the old 0.9 WARN: a parallel pool that costs more than 5%
/// over serial is a regression and fails the bench (and ci.sh step 5).
const SPEEDUP_FLOOR: f64 = 0.95;

struct BenchResult {
    kernel: &'static str,
    l: usize,
    serial_seconds: f64,
    parallel_seconds: f64,
    pool4_seconds: f64,
    /// Speedup estimate per pool: the higher of the median per-rep ratio
    /// (back-to-back timing cancels slow drift) and the best-of-times
    /// ratio (each pool's cleanest window, immune to one-sided
    /// interference bursts). Real dispatch overhead is present in every
    /// window and depresses both estimators; minutes-long host bursts
    /// poison at most one.
    speedup_parallel: f64,
    speedup_pool4: f64,
    /// Identical bits across pools 1 / 2+ / 4.
    bitwise_identical: bool,
    /// FLOPs of the timed region (0 = not FLOP-dominated, skip in profile).
    flops: f64,
}

impl BenchResult {
    fn speedup(&self) -> f64 {
        self.speedup_parallel
    }

    fn pool4_speedup(&self) -> f64 {
        self.speedup_pool4
    }

    /// Worst speedup across the measured pool sizes — what the gate sees.
    fn min_pool_speedup(&self) -> f64 {
        self.speedup().min(self.pool4_speedup())
    }

    /// Fold a re-measurement into this result, keeping each pool's best
    /// (minimum) wall-time window across attempts and the strongest
    /// estimate of each speedup. All pools run identical code after host
    /// clamping, so a genuine dispatch regression slows every window of
    /// every attempt and still caps the merged ratio — while a one-sided
    /// host-interference burst only ever inflates a window and is shed by
    /// the min. Bitwise divergence is sticky: it is deterministic, so a
    /// diverging attempt fails the gate regardless of timing.
    fn merge(&mut self, other: &BenchResult) {
        self.bitwise_identical &= other.bitwise_identical;
        self.serial_seconds = self.serial_seconds.min(other.serial_seconds);
        self.parallel_seconds = self.parallel_seconds.min(other.parallel_seconds);
        self.pool4_seconds = self.pool4_seconds.min(other.pool4_seconds);
        self.speedup_parallel = self
            .speedup_parallel
            .max(other.speedup_parallel)
            .max(ratio(self.serial_seconds, self.parallel_seconds));
        self.speedup_pool4 = self
            .speedup_pool4
            .max(other.speedup_pool4)
            .max(ratio(self.serial_seconds, self.pool4_seconds));
    }

    fn gflops(&self, seconds: f64) -> f64 {
        if seconds > 0.0 && self.flops > 0.0 {
            self.flops / seconds / 1e9
        } else {
            0.0
        }
    }
}

fn ratio(serial: f64, parallel: f64) -> f64 {
    if parallel > 0.0 {
        serial / parallel
    } else {
        0.0
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Worst observed min-pool speedup per kernel across all sizes, in
/// first-seen kernel order.
fn kernel_min_speedups(results: &[BenchResult]) -> Vec<(&'static str, f64)> {
    let mut mins: Vec<(&'static str, f64)> = Vec::new();
    for r in results {
        match mins.iter_mut().find(|(k, _)| *k == r.kernel) {
            Some((_, m)) => *m = m.min(r.min_pool_speedup()),
            None => mins.push((r.kernel, r.min_pool_speedup())),
        }
    }
    mins
}

/// Wall time of one call to `f`, plus its result.
fn time_once<R>(f: &mut impl FnMut() -> R) -> (f64, R) {
    let started = Instant::now();
    let r = f();
    (started.elapsed().as_secs_f64(), r)
}

fn bits2(x: &Tensor2) -> Vec<u32> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn bits3(x: &Tensor3) -> Vec<u32> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The three pinned pools every kernel runs under.
struct Pools {
    serial: std::sync::Arc<Pool>,
    parallel: std::sync::Arc<Pool>,
    pool4: std::sync::Arc<Pool>,
}

/// Times `run` under each pool and checks tri-pool bit identity.
///
/// Reps are *interleaved* across pools (serial, parallel, pool4, serial,
/// …) and each pool keeps its best time, so slow drift in host load —
/// the dominant noise source on shared single-core machines — hits all
/// three pools alike instead of biasing whichever ran last.
fn bench_under_pools<R>(
    kernel: &'static str,
    l: usize,
    reps: usize,
    flops: f64,
    pools: &Pools,
    mut run: impl FnMut() -> R,
    bits: impl Fn(&R) -> Vec<u32>,
) -> BenchResult {
    let mut best = [f64::INFINITY; 3];
    let (mut rp_ratios, mut r4_ratios) = (Vec::new(), Vec::new());
    let mut identical = true;
    let mut reference: Option<Vec<u32>> = None;
    for rep in 0..reps.max(1) {
        // Rotate pool order each rep: periodic host interference (ticks,
        // sibling processes) otherwise aligns with a fixed measurement
        // position and biases one pool's ratio systematically.
        let mut t = [0.0f64; 3];
        for k in 0..3 {
            let which = (rep + k) % 3;
            let pool = [&pools.serial, &pools.parallel, &pools.pool4][which];
            let (secs, r) = with_pool(pool, || time_once(&mut run));
            t[which] = secs;
            best[which] = best[which].min(secs);
            let b = reference.get_or_insert_with(|| bits(&r));
            identical &= *b == bits(&r);
        }
        rp_ratios.push(ratio(t[0], t[1]));
        r4_ratios.push(ratio(t[0], t[2]));
    }
    let [ts, tp, t4] = best;
    BenchResult {
        kernel,
        l,
        serial_seconds: ts,
        parallel_seconds: tp,
        pool4_seconds: t4,
        speedup_parallel: median(&mut rp_ratios).max(ratio(ts, tp)),
        speedup_pool4: median(&mut r4_ratios).max(ratio(ts, t4)),
        bitwise_identical: identical,
        flops,
    }
}

fn bench_matmul(l: usize, reps: usize, pools: &Pools) -> BenchResult {
    let a = Tensor2::from_fn(l, l, |i, j| ((i * 31 + j * 17) % 23) as f32 * 0.21 - 2.1);
    let b = Tensor2::from_fn(l, l, |i, j| ((i * 13 + j * 29) % 19) as f32 * 0.17 - 1.5);
    let flops = 2.0 * (l as f64).powi(3);
    bench_under_pools(
        "matmul",
        l,
        reps,
        flops,
        pools,
        || a.matmul(&b).expect("shapes agree"),
        bits2,
    )
}

fn bench_aaq_encode(l: usize, reps: usize, pools: &Pools) -> BenchResult {
    // 4L tokens at the hardware's Hz = 128 token width, spiky like PPM
    // activations so the top-k path does real work. Not FLOP-dominated
    // (compare/select heavy), so it carries no profile entry.
    let x = Tensor2::from_fn(4 * l, 128, |i, j| {
        let spike = if j == (i * 7) % 128 { 60.0 } else { 1.0 };
        spike * (((i * 13 + j * 5) % 17) as f32 * 0.2 - 1.6)
    });
    let scheme = QuantScheme::int4_with_outliers(4);
    bench_under_pools(
        "aaq_encode",
        l,
        reps,
        0.0,
        pools,
        || {
            let mut enc = x.clone();
            fake_quantize_tokens(&mut enc, scheme);
            enc
        },
        bits2,
    )
}

/// FLOPs of one folding-block forward at the bench (tiny) config.
fn evoformer_block_flops(l: usize) -> f64 {
    let cost = CostModel::new(PpmConfig::tiny());
    let macs: f64 = ALL_STAGES
        .iter()
        .filter(|s| s.is_per_block())
        .map(|&s| cost.stage_macs(s, l))
        .sum();
    2.0 * macs
}

fn bench_evoformer(l: usize, reps: usize, pools: &Pools) -> BenchResult {
    let cfg = PpmConfig::tiny();
    let block = FoldingBlock::new(&cfg, "par_speedup", 0);
    let seq0 = Tensor2::from_fn(l, cfg.hm, |i, j| ((i * 7 + j * 3) % 13) as f32 * 0.1 - 0.6);
    let pair0 = Tensor3::from_fn(l, l, cfg.hz, |i, j, k| {
        ((i * 5 + j * 11 + k * 3) % 17) as f32 * 0.05 - 0.4
    });
    bench_under_pools(
        "evoformer_block",
        l,
        reps,
        evoformer_block_flops(l),
        pools,
        || {
            let mut seq = seq0.clone();
            let mut pair = pair0.clone();
            block
                .forward(&mut seq, &mut pair, &mut NoopHook, 0, 0)
                .expect("tiny config is valid");
            (seq, pair)
        },
        |(seq, pair)| {
            let mut b = bits2(seq);
            b.extend(bits3(pair));
            b
        },
    )
}

/// One-thread `(m, k, n)` GEMM: the best of `reps` interleaved timings of
/// the scalar `reference_matmul` over the best of the tile's, and whether
/// every output matched the reference bit for bit.
fn tile_speedup(m: usize, k: usize, n: usize, reps: usize) -> (f64, bool) {
    use ln_tensor::microkernel::{gemm, reference_matmul, Epilogue};
    let a: Vec<f32> = (0..m * k)
        .map(|i| (i * 31 % 23) as f32 * 0.21 - 2.1)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| (i * 13 % 19) as f32 * 0.17 - 1.5)
        .collect();
    let mut out = vec![0.0f32; m * n];
    let (mut best_reference, mut best_tile) = (f64::INFINITY, f64::INFINITY);
    let mut identical = true;
    for _ in 0..reps.max(1) {
        let (t, reference) = time_once(&mut || reference_matmul(&a, &b, m, k, n));
        best_reference = best_reference.min(t);
        let (t, ()) = time_once(&mut || gemm(&a, &b, k, n, 0, &mut out, &Epilogue::None));
        best_tile = best_tile.min(t);
        identical &= reference
            .iter()
            .zip(&out)
            .all(|(r, o)| r.to_bits() == o.to_bits());
    }
    (ratio(best_reference, best_tile), identical)
}

/// The tile gate (module docs): prints each shape's speedup and returns
/// whether the tile passed — always on the baseline tier, where only the
/// bits are checked.
fn tile_gate() -> bool {
    let tier = ln_tensor::simd::tier();
    let gated = tier == ln_tensor::simd::Tier::Avx2;
    let mut pass = true;
    for (m, k, n, reps) in [(96, 128, 128, 9), (1024, 128, 128, 3)] {
        let (speedup, identical) = tile_speedup(m, k, n, reps);
        println!("gemm tile vs scalar reference at ({m}, {k}, {n}): {speedup:.1}x");
        if !identical {
            eprintln!("DIVERGENCE: the gemm tile at ({m}, {k}, {n}) differs from reference_matmul");
            pass = false;
        }
        if gated && speedup < TILE_FLOOR {
            eprintln!(
                "FAIL: the gemm tile at ({m}, {k}, {n}) runs {speedup:.1}x the scalar reference — \
                 below the {TILE_FLOOR:.0}x floor on the avx2 tier"
            );
            pass = false;
        }
    }
    if !gated {
        println!(
            "gemm tile speed gate skipped: kernel tier {} (the {TILE_FLOOR:.0}x floor is for avx2)",
            tier.name()
        );
    }
    pass
}

fn document(threads: usize, results: &[BenchResult]) -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    let count = |n: usize| Value::UInt(n as u64);
    let timed = results.iter().map(|r| {
        obj([
            ("kernel", text(r.kernel)),
            ("l", count(r.l)),
            ("serial_seconds", Value::Float(r.serial_seconds)),
            ("parallel_seconds", Value::Float(r.parallel_seconds)),
            ("speedup", Value::Float(r.speedup())),
            ("bitwise_identical", Value::Bool(r.bitwise_identical)),
        ])
    });
    // A pinned 4-thread pool, separate from the host-sized pool above, so
    // the cross-pool bit-identity claim is reproducible on any machine.
    let pool4 = results.iter().map(|r| {
        obj([
            ("kernel", text(r.kernel)),
            ("l", count(r.l)),
            ("pool4_seconds", Value::Float(r.pool4_seconds)),
            ("speedup", Value::Float(r.pool4_speedup())),
        ])
    });
    // Achieved GFLOP/s for the FLOP-dominated kernels, the numbers
    // `--profile` prints.
    let profile = results.iter().filter(|r| r.flops > 0.0).map(|r| {
        obj([
            ("kernel", text(r.kernel)),
            ("l", count(r.l)),
            ("flops", Value::Float(r.flops)),
            ("gflops_serial", Value::Float(r.gflops(r.serial_seconds))),
            (
                "gflops_parallel",
                Value::Float(r.gflops(r.parallel_seconds)),
            ),
        ])
    });
    // Per-kernel worst case across sizes *and* pool sizes — the gate input.
    let mins = kernel_min_speedups(results)
        .into_iter()
        .map(|(kernel, min)| obj([("kernel", text(kernel)), ("min_speedup", Value::Float(min))]));
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("bench", text("par_speedup")),
        ("threads", count(threads)),
        ("host_parallelism", count(host_parallelism)),
        // Which instantiation of the inner loops produced these seconds.
        ("kernel_tier", text(ln_tensor::simd::tier().name())),
        ("kernel_min_speedup_floor", Value::Float(SPEEDUP_FLOOR)),
        ("results", Value::Arr(timed.collect())),
        ("pool4", Value::Arr(pool4.collect())),
        ("profile", Value::Arr(profile.collect())),
        ("kernel_min_speedup", Value::Arr(mins.collect())),
    ])
}

fn print_profile(results: &[BenchResult]) {
    let hw = HwConfig::paper();
    let mut t = Table::new(["kernel", "L", "GFLOP/s serial", "GFLOP/s parallel"]);
    for r in results.iter().filter(|r| r.flops > 0.0) {
        t.add_row([
            r.kernel.to_string(),
            r.l.to_string(),
            format!("{:.2}", r.gflops(r.serial_seconds)),
            format!("{:.2}", r.gflops(r.parallel_seconds)),
        ]);
    }
    show(&t);
    println!(
        "paper-hardware ceilings for context: {:.1} INT8 TOPS compute, {:.0} GB/s HBM \
         — the software kernels chase the same roofline shape at CPU scale",
        hw.int8_tops(),
        hw.hbm_bandwidth_bytes_per_s / 1e9
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let profile = std::env::args().any(|a| a == "--profile");
    banner(if quick {
        "par_speedup --quick — pool-overhead and divergence gate (ln-par)"
    } else {
        "par_speedup — serial vs ln-par parallel kernels"
    });
    paper_note(
        "software analogue of the paper's 32-RMPU/128-VVPU parallel axes: \
         row-parallel register-tiled matmul, token-parallel AAQ, \
         pair-row-parallel Evoformer; identical bits across pools 1/2/4 by \
         ownership-per-row design",
    );

    // Pool::new clamps to the host's cores (oversubscription only adds
    // context-switch cost — the old 0.598× regression), so on small hosts
    // the requested 2/4-thread pools degrade toward serial and the gate
    // measures dispatch overhead honestly. Cross-pool bit identity at
    // genuinely different thread counts is separately pinned by
    // tests/par_determinism.rs with exact (unclamped) pools.
    let pools = Pools {
        serial: Pool::new(1),
        parallel: Pool::new(ln_par::global().threads().max(2)),
        pool4: Pool::new(4),
    };
    let threads = pools.parallel.threads();

    type BenchFn<'a> = Box<dyn Fn() -> BenchResult + 'a>;
    let pools = &pools;
    let specs: Vec<BenchFn> = if quick {
        vec![
            Box::new(|| bench_matmul(192, 7, pools)),
            Box::new(|| bench_aaq_encode(64, 7, pools)),
            Box::new(|| bench_evoformer(32, 5, pools)),
        ]
    } else {
        // Rep counts scale inversely with kernel runtime: millisecond
        // kernels need several interleaved reps for the per-rep ratio
        // median to shed timer noise, while the multi-second Evoformer
        // runs are stable (and expensive) enough for one or two.
        let mut v: Vec<BenchFn> = Vec::new();
        for l in [256usize, 512, 1024] {
            v.push(Box::new(move || {
                bench_matmul(l, if l <= 512 { 5 } else { 3 }, pools)
            }));
        }
        for l in [256usize, 512, 1024] {
            v.push(Box::new(move || bench_aaq_encode(l, 5, pools)));
        }
        for l in [256usize, 512, 1024] {
            v.push(Box::new(move || {
                bench_evoformer(l, if l <= 256 { 2 } else { 1 }, pools)
            }));
        }
        v
    };
    let mut results: Vec<BenchResult> = specs.iter().map(|f| f()).collect();

    // Bounded re-measure before failing the speedup gate: wall-clock noise
    // on shared hosts can dip a healthy kernel below the floor, while a
    // genuine regression (the 0.598× kind) fails every attempt. Bitwise
    // divergence is deterministic and is never retried.
    let retries = 2;
    for (i, spec) in specs.iter().enumerate() {
        let mut attempt = 0;
        while results[i].bitwise_identical
            && results[i].min_pool_speedup() < SPEEDUP_FLOOR
            && attempt < retries
        {
            attempt += 1;
            println!(
                "re-measuring {} at L={} ({:.3}x is below the {SPEEDUP_FLOOR:.2}x floor; \
                 attempt {attempt}/{retries})",
                results[i].kernel,
                results[i].l,
                results[i].min_pool_speedup(),
            );
            let again = spec();
            if !again.bitwise_identical {
                results[i] = again;
            } else {
                results[i].merge(&again);
            }
        }
    }

    let mut t = Table::new([
        "kernel",
        "L",
        "serial",
        "parallel",
        "speedup",
        "pool4",
        "bit-identical",
    ]);
    for r in &results {
        t.add_row([
            r.kernel.to_string(),
            r.l.to_string(),
            fmt_seconds(r.serial_seconds),
            fmt_seconds(r.parallel_seconds),
            fmt_ratio(r.speedup()),
            fmt_ratio(r.pool4_speedup()),
            r.bitwise_identical.to_string(),
        ]);
    }
    show(&t);
    println!(
        "pools: 1 / {} / {} threads after host clamping (host parallelism {}); \
         kernel tier {}; gate floor {:.2}x at every pool size",
        threads,
        pools.pool4.threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ln_tensor::simd::tier().name(),
        SPEEDUP_FLOOR
    );
    if profile {
        print_profile(&results);
    }

    let mut bad = !tile_gate();
    for r in &results {
        if r.min_pool_speedup() < SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: {} at L={} runs at {:.3}x (parallel) / {:.3}x (pool4) — below the \
                 {SPEEDUP_FLOOR:.2}x floor",
                r.kernel,
                r.l,
                r.speedup(),
                r.pool4_speedup(),
            );
            bad = true;
        }
        if !r.bitwise_identical {
            eprintln!(
                "DIVERGENCE: {} at L={} is not bit-identical across pools 1/{}/4",
                r.kernel, r.l, threads
            );
            bad = true;
        }
    }
    if bad {
        std::process::exit(1);
    }
    emit("BENCH_PAR.json", &document(threads, &results), quick);
    println!("all kernels bit-identical across pools and above the {SPEEDUP_FLOOR:.2}x floor");
}
