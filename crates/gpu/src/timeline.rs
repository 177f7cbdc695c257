//! Buffer-lifetime timeline of the baseline PPM: an independent derivation
//! of peak memory.
//!
//! The closed-form `CostModel::peak_activation_bytes` asserts which stage
//! holds the residency peak; this module *simulates* it instead — walking
//! the folding block's dataflow, allocating and freeing each named buffer
//! in order, and tracking live bytes. The two derivations cross-validate
//! each other (see `peak_matches_closed_form`), which is how the paper
//! validates its own estimates for lengths beyond GPU memory (Fig. 15(b)).

use ln_ppm::cost::{CostModel, ExecMode, FP16_BYTES};

/// One allocation event in the dataflow walk.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferEvent {
    /// Buffer name (for traces).
    pub name: &'static str,
    /// Size in bytes.
    pub bytes: f64,
    /// `true` = allocate, `false` = free.
    pub alloc: bool,
}

/// Result of a timeline walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The event sequence.
    pub events: Vec<BufferEvent>,
    /// Peak live bytes.
    pub peak_bytes: f64,
    /// Buffer name live at the peak.
    pub peak_at: &'static str,
}

/// Walks one folding block's pair dataflow and returns the residency
/// timeline.
pub fn folding_block_timeline(cost: &CostModel, ns: usize, mode: ExecMode) -> Timeline {
    let cfg = cost.config();
    let n = ns as f64;
    let pair = cost.pair_rep_elems(ns) * FP16_BYTES;
    let hz = cfg.hz as f64;
    let attn = cfg.pair_attn_dim() as f64;
    let tokens = n * n;

    let mut events: Vec<BufferEvent> = Vec::new();
    let mut push = |name: &'static str, bytes: f64, alloc: bool| {
        events.push(BufferEvent { name, bytes, alloc });
    };

    // Residual pair stream is always live.
    push("pair_residual", pair, true);

    // --- Triangular multiplication ---------------------------------
    push("tri_mul_post_ln", pair, true);
    push("tri_mul_left", tokens * hz * FP16_BYTES, true);
    push("tri_mul_right", tokens * hz * FP16_BYTES, true);
    push("tri_mul_post_ln", pair, false);
    push("tri_mul_triangle_out", tokens * hz * FP16_BYTES, true);
    push("tri_mul_left", tokens * hz * FP16_BYTES, false);
    push("tri_mul_right", tokens * hz * FP16_BYTES, false);
    push("tri_mul_triangle_out", tokens * hz * FP16_BYTES, false);

    // --- Triangular attention ---------------------------------------
    push("tri_attn_post_ln", pair, true);
    push("tri_attn_qkv", 3.0 * tokens * attn * FP16_BYTES, true);
    push("tri_attn_post_ln", pair, false);
    match mode {
        ExecMode::Vanilla => {
            // Scores + softmax output fully materialised.
            let scores = cost.score_elems(ns) * FP16_BYTES;
            push("tri_attn_scores", scores, true);
            push("tri_attn_probs", scores, true);
            push("tri_attn_scores", scores, false);
            push("tri_attn_ctx", tokens * attn * FP16_BYTES, true);
            push("tri_attn_probs", scores, false);
        }
        ExecMode::Chunked { rows } => {
            let live = 2.0 * cfg.pair_heads as f64 * rows.max(1) as f64 * n * n * FP16_BYTES;
            push("tri_attn_score_chunk", live, true);
            push("tri_attn_ctx", tokens * attn * FP16_BYTES, true);
            push("tri_attn_score_chunk", live, false);
        }
    }
    push("tri_attn_ctx", tokens * attn * FP16_BYTES, false);
    push("tri_attn_qkv", 3.0 * tokens * attn * FP16_BYTES, false);

    // --- Pair transition ---------------------------------------------
    push(
        "transition_hidden",
        tokens * cfg.hz as f64 * cfg.transition_factor as f64 * FP16_BYTES,
        true,
    );
    push(
        "transition_hidden",
        tokens * cfg.hz as f64 * cfg.transition_factor as f64 * FP16_BYTES,
        false,
    );

    push("pair_residual", pair, false);

    // Walk the events tracking residency.
    let mut live = 0.0f64;
    let mut peak = 0.0f64;
    let mut peak_at = "pair_residual";
    for e in &events {
        if e.alloc {
            live += e.bytes;
            if live > peak {
                peak = live;
                peak_at = e.name;
            }
        } else {
            live -= e.bytes;
        }
    }
    Timeline {
        events,
        peak_bytes: peak,
        peak_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::paper()
    }

    #[test]
    fn allocations_balance() {
        let t = folding_block_timeline(&cost(), 512, ExecMode::Vanilla);
        let net: f64 = t
            .events
            .iter()
            .map(|e| if e.alloc { e.bytes } else { -e.bytes })
            .sum();
        assert!(net.abs() < 1.0, "leaked {net} bytes");
    }

    #[test]
    fn vanilla_peak_is_in_the_score_tensors() {
        let t = folding_block_timeline(&cost(), 1024, ExecMode::Vanilla);
        assert!(t.peak_at.starts_with("tri_attn"), "peak at {}", t.peak_at);
    }

    #[test]
    fn peak_matches_closed_form() {
        // The timeline and the closed-form estimate must agree within the
        // closed form's bookkeeping slack (it adds working-set terms the
        // timeline folds into neighbours).
        let m = cost();
        for ns in [512usize, 1024, 2034, 3364] {
            for mode in [ExecMode::Vanilla, ExecMode::Chunked { rows: 4 }] {
                let timeline = folding_block_timeline(&m, ns, mode).peak_bytes;
                let closed = m.peak_activation_bytes(ns, mode);
                let ratio = closed / timeline;
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "ns={ns} {mode:?}: timeline {timeline:.3e} vs closed {closed:.3e}"
                );
            }
        }
    }

    #[test]
    fn chunking_cuts_the_timeline_peak_cubically() {
        let m = cost();
        let v = folding_block_timeline(&m, 2034, ExecMode::Vanilla).peak_bytes;
        let c = folding_block_timeline(&m, 2034, ExecMode::Chunked { rows: 4 }).peak_bytes;
        assert!(v / c > 5.0, "ratio {}", v / c);
    }
}
