//! # ln-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. One binary per artifact:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig03_latency_breakdown`  | Fig. 3 — PPM latency breakdown (R0271 vs T1269) |
//! | `fig04_activation_explosion` | Fig. 4 — weight vs peak activation size |
//! | `fig05_token_distogram`    | Fig. 5 — channel-wise vs token-wise distributions |
//! | `fig06_group_characteristics` | Fig. 6(c) — Group A/B/C statistics |
//! | `fig11_aaq_dse`            | Fig. 11 — AAQ design-space exploration |
//! | `fig12_hw_dse`             | Fig. 12 — hardware design-space exploration |
//! | `tab01_scheme_footprints`  | Table 1 — scheme memory footprints |
//! | `fig13_accuracy`           | Fig. 13 — TM-Score across datasets × schemes |
//! | `fig14a_end_to_end`        | Fig. 14(a) — end-to-end PPM system comparison |
//! | `fig14bcd_hw_performance`  | Fig. 14(b–d) — LightNobel vs A100/H100 |
//! | `fig15_peak_memory`        | Fig. 15 — peak memory across datasets/lengths |
//! | `fig16_compute_footprint`  | Fig. 16 — computational cost & memory footprint |
//! | `tab02_area_power`         | Table 2 — area/power breakdown |
//! | `ablate_outlier_rmse`      | §4.1 — symmetric quantization ± outlier handling |
//! | `ablate_scalability`       | §9.1 — peak memory vs MEFold / PTQ4Protein |
//! | `ablate_asymmetric`        | §4.1 — symmetric vs asymmetric quantization |
//! | `ablate_dal`               | §5.2 — dynamic accumulation vs fixed adder trees |
//! | `ablate_grouping`          | §3.3 — token/channel/tensor-wise granularity |
//! | `extend_h200`              | §8.2 projection — H200 and HBM3E LightNobel |
//! | `all_experiments`          | every artifact in sequence |
//!
//! Each binary prints the paper's reported values next to the measured
//! ones so EXPERIMENTS.md can be regenerated by reading the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::Instant;

use lightnobel::report::Table;
use ln_insight::json::{self, Value};
use ln_ppm::taps::{ActivationSite, Tap};
use ln_tensor::Tensor2;

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a "paper reports vs we measure" note.
pub fn paper_note(note: &str) {
    println!("paper: {note}");
}

/// Prints a rendered table.
pub fn show(table: &Table) {
    print!("{}", table.render());
}

/// Best-of-`reps` nanoseconds per iteration of `f(iters)`.
pub fn time_best(reps: usize, iters: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        black_box(f(iters));
        best = best.min(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Off-mode overhead budget: with `LN_OBS=off`, instrumented code may cost
/// at most this many percent more than the same code uninstrumented.
pub const OFF_BUDGET_PCT: f64 = 5.0;

/// One off-mode cost measurement, in ns per iteration.
#[derive(Debug, Clone, Copy)]
pub struct OffCost {
    /// The uninstrumented loop: its median rep.
    pub baseline_ns: f64,
    /// The same loop with the off-mode instrumentation in it: its median
    /// rep.
    pub gated_ns: f64,
    /// The median, over the interleaved pairs of reps, of the gated rep
    /// over the baseline rep just before it, in percent above 100.
    pub delta_pct: f64,
}

impl OffCost {
    /// Whether the instrumentation costs more than [`OFF_BUDGET_PCT`].
    pub fn over_budget(&self) -> bool {
        self.delta_pct > OFF_BUDGET_PCT
    }
}

/// The off-mode cost gate's one measuring rule. `baseline(iters)` and
/// `gated(iters)` run interleaved rep by rep, and each pair of reps gives
/// one ratio: the two sides of a pair sample the same machine conditions,
/// so a drift of the host's speed across reps cancels, and the median
/// pair leaves out the reps a preemption hit. Each pair runs
/// `STACK_STEP` bytes deeper in the stack than the one before, sixteen
/// steps round: where the stack starts is random per process, and at some
/// starts one side's frames alias the data it reads every 4 KiB — a
/// process-long slowdown of 6–8 % that is neither side's cost, which the
/// rotation confines to a pair or two of every sixteen. The true off-mode
/// cost is a branch, so a result over budget is usually scheduler noise
/// on a busy host: it gets one fresh re-measure, whose result stands.
pub fn off_mode_cost(
    reps: usize,
    iters: u64,
    mut baseline: impl FnMut(u64) -> u64,
    mut gated: impl FnMut(u64) -> u64,
) -> OffCost {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut measure = || {
        let pairs: Vec<(f64, f64)> = (0..reps.max(1))
            .map(|rep| {
                deeper_by(rep % 16, || {
                    let b = time_best(1, iters, &mut baseline);
                    (b, time_best(1, iters, &mut gated))
                })
            })
            .collect();
        OffCost {
            baseline_ns: median(pairs.iter().map(|p| p.0).collect()),
            gated_ns: median(pairs.iter().map(|p| p.1).collect()),
            delta_pct: median(pairs.iter().map(|(b, g)| (g - b) / b * 100.0).collect()),
        }
    };
    let first = measure();
    if first.over_budget() {
        measure()
    } else {
        first
    }
}

/// Stack bytes between two of [`off_mode_cost`]'s pairs of reps.
const STACK_STEP: usize = 256;

/// `f()`, called `steps` × [`STACK_STEP`] bytes deeper in the stack.
#[inline(never)]
fn deeper_by<R>(steps: usize, f: impl FnOnce() -> R) -> R {
    let pad = [0u8; STACK_STEP];
    let out = if steps == 0 {
        f()
    } else {
        deeper_by(steps - 1, f)
    };
    // Read after the call, so the frame and its pad outlive it.
    black_box(&pad);
    out
}

/// A compute kernel standing in for real work between events: 64 rounds of
/// integer mixing, opaque to the optimizer. Large enough that a single
/// relaxed atomic load should disappear into it; small enough that bloat
/// from a botched off-gate would still register.
#[inline(always)]
pub fn mix(mut x: u64) -> u64 {
    for _ in 0..64 {
        x = x
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    }
    x
}

/// The tap the hook benchmarks feed: a post-LN triangular-multiplication
/// site, alternating between two blocks.
pub fn probe_tap(i: u64) -> Tap {
    Tap {
        block: (i % 2) as usize,
        recycle: 0,
        site: ActivationSite::TriMulPostLn,
    }
}

/// The spiky synthetic 16 × 128 activation the hook benchmarks quantize:
/// mostly unit scale with every fourth token 30× hotter — enough dynamic
/// range to make the outlier census non-trivial.
pub fn spiky_activation() -> Tensor2 {
    Tensor2::from_fn(16, 128, |i, j| {
        let scale = if i % 4 == 0 { 30.0 } else { 1.0 };
        scale * (((i * 13 + j * 7) % 19) as f32 * 0.1 - 0.9)
    })
}

/// Emits one `BENCH_*.json` document: serialises it, checks that the text
/// parses back to the same value, then writes `path` — unless `quick`, so
/// that a `--quick` gate run exercises the writer a full run would use and
/// leaves the committed record alone.
pub fn emit(path: &str, doc: &Value, quick: bool) {
    let text = json::write(doc);
    assert_eq!(
        json::parse(&text).as_ref(),
        Ok(doc),
        "{path} does not read back as written"
    );
    if !quick {
        std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

    /// Runs the gate with one side sleeping a millisecond a call and returns
    /// the order in which the two sides ran.
    fn call_order(slow_side: char, reps: usize) -> (String, OffCost) {
        let order = RefCell::new(String::new());
        let side = |name: char| {
            let order = &order;
            move |n: u64| {
                order.borrow_mut().push(name);
                if name == slow_side {
                    std::thread::sleep(Duration::from_millis(1));
                }
                n
            }
        };
        let cost = off_mode_cost(reps, 1, side('b'), side('g'));
        (order.into_inner(), cost)
    }

    #[test]
    fn off_mode_cost_interleaves_reps_and_keeps_a_pass() {
        let (order, cost) = call_order('b', 3);
        assert_eq!(order, "bgbgbg");
        assert!(!cost.over_budget(), "{cost:?}");
    }

    #[test]
    fn off_mode_cost_re_measures_a_miss_once() {
        let (order, cost) = call_order('g', 3);
        assert_eq!(order, "bgbgbgbgbgbg");
        assert!(cost.over_budget(), "{cost:?}");
    }

    /// `write` renders a NaN as the quoted `"NaN"` marker, which `parse`
    /// reads back as a string: the document does not survive the trip.
    #[test]
    #[should_panic(expected = "does not read back as written")]
    fn emit_refuses_a_document_that_does_not_read_back() {
        let doc = json::obj([("x", Value::Float(f64::NAN))]);
        emit("unwritten.json", &doc, true);
    }
}
