//! Acceptance tests for the ln-scope activation numerics observatory
//! (DESIGN.md §16):
//!
//! * The numerics snapshot of a fold is **byte-identical** across ln-par
//!   pool sizes 1/2/4 — the sketches and ledger observe the hook path,
//!   which the trunk drives in dataflow order regardless of how the
//!   kernels parallelise, so pool size must never show in the bytes.
//! * With `LN_OBS=off`, wrapping a hook in the observatory is
//!   bit-transparent: same prediction, nothing observed.
//! * The error the quantizer reports about itself (what `AaqHook` keeps)
//!   agrees with the observatory's own before/after difference per group.
//! * A fold with `attention_chunk` set ledgers the score bytes of the
//!   unchunked fold: its score blocks reach the hook, every row of them.
//! * A quantized-domain fold keeps its post-LN ledger rows, and wrapping
//!   leaves the inner hook's bytes and error sums as they are unwrapped.
//! * [`Scope::merge`] is associative and commutative, so per-worker or
//!   per-shard scopes can be folded together in any grouping without
//!   changing the snapshot — checked on fixed seed triples and on 32
//!   drawn from `ln_tensor::rng`.

use lightnobel::hook::AaqHook;
use ln_obs::ObsLevel;
use ln_par::{with_pool, Pool};
use ln_ppm::{FoldingModel, PpmConfig, PredictionOutput};
use ln_protein::generator::StructureGenerator;
use ln_protein::Sequence;
use ln_quant::scheme::Group;
use ln_quant::token::QuantError;
use ln_scope::{group_for_stage, Scope, ScopeHook, SketchKey};
use ln_tensor::rng::{self, Rng};
use ln_tensor::Tensor2;

const LEN: usize = 24;

/// Folds one small deterministic protein through the AAQ-quantized trunk
/// of `config` under a pool of `threads` workers, observing with the full
/// observatory (sketches + ledger + probes).
fn fold_observed(config: PpmConfig, threads: usize) -> (ScopeHook<AaqHook>, PredictionOutput) {
    let model = FoldingModel::new(config);
    let seq = Sequence::random("numerics-scope", LEN);
    let native = StructureGenerator::new("numerics-scope").generate(LEN);
    let pool = Pool::new_exact(threads);
    with_pool(&pool, || {
        let mut hook = ScopeHook::new(AaqHook::paper(), LEN);
        let out = model
            .predict_with_hook(&seq, &native, &mut hook)
            .expect("tiny fold succeeds");
        (hook, out)
    })
}

fn fold_scope(threads: usize) -> (Scope, PredictionOutput) {
    let (hook, out) = fold_observed(PpmConfig::tiny(), threads);
    (Scope::from_hook(hook), out)
}

#[test]
fn scope_snapshot_is_byte_identical_across_pools() {
    let _guard = ln_obs::pin_level(ObsLevel::Counters);
    let (scope1, out1) = fold_scope(1);
    let golden = scope1.snapshot_jsonl();
    assert!(!scope1.is_empty(), "the fold must populate the observatory");
    for threads in [2usize, 4] {
        let (scope, out) = fold_scope(threads);
        assert_eq!(
            scope.snapshot_jsonl(),
            golden,
            "numerics snapshot diverged at pool size {threads}"
        );
        assert_eq!(out, out1, "fold output diverged at pool size {threads}");
    }

    // The collected numerics are sane: quantization error is real but
    // small, and every ledger cell carries a config-attributed rung
    // (AAQ touches every group, so nothing should read "fp32").
    let worst = scope1.worst_layer_rmse();
    assert!(
        worst > 0.0 && worst < 1.0,
        "worst rmse {worst} out of range"
    );
    for ((block, stage), entry) in scope1.ledger.iter() {
        assert!(
            entry.rung.starts_with("INT"),
            "cell (b{block}, {stage}) lost its rung: {:?}",
            entry.rung
        );
        assert!(entry.taps > 0);
    }
}

#[test]
fn ledger_difference_agrees_with_the_quantizers_own_report() {
    let _guard = ln_obs::pin_level(ObsLevel::Counters);
    let (hook, _) = fold_observed(PpmConfig::tiny(), 1);
    // The reference: the wrapper's element-by-element difference around
    // the inner hook, summed per group from the per-(layer, stage) cells.
    let mut reference = [QuantError::default(); 3];
    for ((_, stage), entry) in hook.ledger().iter() {
        let group = group_for_stage(stage).expect("every cell is a tap's stage");
        reference[group.index()] += QuantError {
            err_sq: entry.err_sq,
            val_sq: entry.val_sq,
        };
    }
    for group in [Group::A, Group::B, Group::C] {
        let reference = reference[group.index()].relative_rmse();
        let reported = hook.inner().relative_rmse(group);
        assert!(reference > 0.0, "group {group} saw no error");
        assert!(
            (reported - reference).abs() <= 1e-9 * reference,
            "group {group}: quantizer reports {reported}, difference gives {reference}"
        );
    }
}

#[test]
fn chunked_fold_ledgers_the_unchunked_folds_score_bytes() {
    let _guard = ln_obs::pin_level(ObsLevel::Counters);
    let score_cells = |attention_chunk| {
        let config = PpmConfig {
            attention_chunk,
            ..PpmConfig::tiny()
        };
        let (hook, out) = fold_observed(config, 1);
        let cells: Vec<_> = hook
            .ledger()
            .iter()
            .filter(|((_, stage), _)| *stage == "tri_attn.scores")
            .map(|((block, _), cell)| (*block, cell.encoded_bytes, cell.fp16_bytes))
            .collect();
        (cells, out)
    };
    let (whole, whole_out) = score_cells(None);
    assert_eq!(whole.len(), PpmConfig::tiny().blocks);
    assert!(whole.iter().all(|&(_, encoded, _)| encoded > 0));
    // 24 query rows a lane in blocks of 5: four full blocks and a tail.
    let (blocked, blocked_out) = score_cells(Some(5));
    assert_eq!(blocked, whole);
    assert_eq!(blocked_out, whole_out);
}

#[test]
fn off_mode_wrapping_is_bit_transparent() {
    let _guard = ln_obs::pin_level(ObsLevel::Off);
    let model = FoldingModel::new(PpmConfig::tiny());
    let seq = Sequence::random("numerics-scope-off", LEN);
    let native = StructureGenerator::new("numerics-scope-off").generate(LEN);

    let mut bare = AaqHook::paper();
    let bare_out = model
        .predict_with_hook(&seq, &native, &mut bare)
        .expect("bare fold succeeds");

    let mut wrapped = ScopeHook::new(AaqHook::paper(), LEN);
    let wrapped_out = model
        .predict_with_hook(&seq, &native, &mut wrapped)
        .expect("wrapped fold succeeds");

    assert_eq!(bare_out, wrapped_out, "off-mode wrapper must not perturb");
    assert!(
        Scope::from_hook(wrapped).is_empty(),
        "off mode must observe nothing"
    );
}

#[test]
fn quantized_domain_fold_keeps_its_post_ln_rows() {
    // The trunk encodes the post-LN activations itself and shows the hook
    // the encoding: the wrapper forwards it, and books the ledger entry
    // from the error the encoding reports.
    let _guard = ln_obs::pin_level(ObsLevel::Counters);
    let config = PpmConfig::tiny();
    let model = FoldingModel::new(config.clone());
    let seq = Sequence::random("numerics-scope-qdomain", LEN);
    let native = StructureGenerator::new("numerics-scope-qdomain").generate(LEN);

    let mut bare = AaqHook::paper().with_quantized_domain();
    let bare_out = model
        .predict_with_hook(&seq, &native, &mut bare)
        .expect("bare fold succeeds");
    let mut wrapped = ScopeHook::new(AaqHook::paper().with_quantized_domain(), LEN);
    let wrapped_out = model
        .predict_with_hook(&seq, &native, &mut wrapped)
        .expect("wrapped fold succeeds");
    assert_eq!(bare_out, wrapped_out, "observing must not perturb");

    let inner = wrapped.inner();
    assert_eq!(inner.encoded_bytes(), bare.encoded_bytes());
    assert_eq!(inner.fp16_bytes(), bare.fp16_bytes());
    for group in [Group::A, Group::B, Group::C] {
        assert_eq!(
            inner.relative_rmse(group).to_bits(),
            bare.relative_rmse(group).to_bits(),
            "group {group}"
        );
    }
    let scheme = AaqHook::paper().config().scheme_for(Group::B);
    for block in 0..config.blocks {
        for stage in ["tri_mul.post_ln", "tri_attn.post_ln", "transition.post_ln"] {
            let entry = wrapped
                .ledger()
                .get(block, stage)
                .unwrap_or_else(|| panic!("block {block} has no {stage} row"));
            let units: usize = if stage.starts_with("transition") {
                1
            } else {
                2
            };
            assert_eq!(entry.taps, units as u64, "block {block} {stage}");
            assert_eq!(entry.rung, scheme.to_string(), "block {block} {stage}");
            let tokens = LEN * LEN * units;
            assert_eq!(
                entry.encoded_bytes,
                (tokens * scheme.token_bytes(config.hz)) as u64
            );
            assert!(entry.err_sq > 0.0 && entry.val_sq > entry.err_sq);
        }
    }
}

/// A scope populated from `seed`, built entirely from dyadic rationals
/// (multiples of 1/64 with small magnitudes), so every floating-point
/// accumulation in `merge` is exact and byte-identity — not just
/// approximate equality — is the right assertion for associativity.
///
/// The rung label is the same in every scope: shards of one run share one
/// AAQ config, and the busier-cell tie-break on the label is only
/// order-free under that (realistic) condition.
fn dyadic_scope(seed: u64) -> Scope {
    let stages = [
        "tri_mul.residual_in",
        "tri_mul.post_ln",
        "tri_attn.scores",
        "transition.post_ln",
    ];
    let buckets = ["le_256", "le_512"];
    let mut r = rng::stream_indexed("numerics-scope/merge", seed);
    let mut dyadic = move || ((r.next_u64() % 1025) as i64 - 512) as f32 / 64.0;

    let mut scope = Scope::new();
    for (s, &stage) in stages.iter().enumerate() {
        let block = s % 2;
        let x = Tensor2::from_fn(5, 8, |_, _| dyadic());
        scope.book.observe(
            SketchKey {
                block,
                stage,
                bucket: buckets[s % buckets.len()],
            },
            &x,
        );
        let cell = scope.ledger.entry(block, stage);
        cell.rung = String::from("INT4+4o");
        cell.taps = seed * 3 + s as u64 + 1;
        cell.err_sq = (seed + 1) as f64 / 16.0;
        cell.val_sq = (seed + 7) as f64 * 4.0;
        cell.encoded_bytes = 40 * (seed + 1);
        cell.fp16_bytes = 128 * (seed + 1);
        cell.probe_err_sq = [(seed + 2) as f64 / 8.0, (seed + 3) as f64 / 32.0];
        cell.probe_val_sq = [(seed + 7) as f64 * 4.0; 2];
    }
    scope
}

fn assert_merge_order_free(sa: u64, sb: u64, sc: u64) {
    let a = dyadic_scope(sa);
    let b = dyadic_scope(sb);
    let c = dyadic_scope(sc);

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(
        ab.snapshot_jsonl(),
        ba.snapshot_jsonl(),
        "merge must commute (seeds {sa}, {sb})"
    );

    let mut ab_c = ab;
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(
        ab_c.snapshot_jsonl(),
        a_bc.snapshot_jsonl(),
        "merge must associate (seeds {sa}, {sb}, {sc})"
    );
}

#[test]
fn scope_merge_is_associative_and_commutative_seeded() {
    for (sa, sb, sc) in [(0u64, 1, 2), (3, 3, 3), (9, 0, 41), (17, 5, 11)] {
        assert_merge_order_free(sa, sb, sc);
    }
    // And for 32 arbitrary seed triples, one replayable stream a case.
    for case in 0..32 {
        let mut rng = rng::stream_indexed("numerics_scope/merge_order_free", case);
        let mut seed = || rng.gen_range(0..1_000_000u64);
        assert_merge_order_free(seed(), seed(), seed());
    }
}
