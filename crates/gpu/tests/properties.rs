//! Property tests for the GPU baseline models. Every property here is a
//! statement about one sequence length in a range of a few thousand and
//! the models are closed-form, so each runs over its whole range — no
//! sampling, and a failure names the length.

use ln_gpu::esmfold::{EsmFoldGpuModel, ExecOptions};
use ln_gpu::systems::{PpmSystem, ALL_SYSTEMS};
use ln_gpu::{A100, H100, H200};

fn both_modes() -> [ExecOptions; 2] {
    [ExecOptions::vanilla(), ExecOptions::chunk4()]
}

#[test]
fn folding_time_is_monotone_in_length() {
    // Strictly increasing from each length to the next, hence over any
    // step, on the whole of 32..3072.
    for device in [A100, H100, H200] {
        let m = EsmFoldGpuModel::new(device);
        for opts in both_modes() {
            for ns in 32..3071 {
                assert!(
                    m.folding_seconds(ns + 1, opts) > m.folding_seconds(ns, opts),
                    "{} {:?} at {ns}",
                    device.name,
                    opts
                );
            }
        }
    }
}

#[test]
fn peak_memory_is_monotone_and_chunk_helps() {
    let m = EsmFoldGpuModel::new(H100);
    for ns in 64..4096 {
        let vanilla = m.peak_memory_bytes(ns, ExecOptions::vanilla());
        let chunked = m.peak_memory_bytes(ns, ExecOptions::chunk4());
        assert!(chunked <= vanilla, "{ns}");
        assert!(vanilla > 0.0 && chunked > 0.0, "{ns}");
    }
}

#[test]
fn oom_frontier_is_a_threshold() {
    // If ns fits, every shorter protein fits too (no non-monotone OOM).
    let m = EsmFoldGpuModel::new(H100);
    for opts in both_modes() {
        for ns in 129..8192 {
            if m.fits_memory(ns, opts) {
                assert!(m.fits_memory(ns / 2, opts), "{ns} {:?}", opts);
            }
        }
    }
}

#[test]
fn breakdown_fractions_form_a_distribution() {
    let m = EsmFoldGpuModel::new(H100);
    for ns in 32..3000 {
        let parts = m.latency_breakdown(ns, ExecOptions::vanilla());
        let sum: f64 = parts.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{ns}");
        assert!(parts.iter().all(|&p| (0.0..=1.0).contains(&p)), "{ns}");
    }
}

#[test]
fn h200_is_never_slower_than_h100() {
    // Same compute envelope, more bandwidth: the H200 can only help.
    let h100 = EsmFoldGpuModel::new(H100);
    let h200 = EsmFoldGpuModel::new(H200);
    for opts in both_modes() {
        for ns in 64..2048 {
            assert!(
                h200.folding_seconds(ns, opts) <= h100.folding_seconds(ns, opts) * 1.0001,
                "{ns} {:?}",
                opts
            );
        }
    }
}

#[test]
fn system_latencies_are_positive_and_e2e_dominates_folding() {
    let baseline = EsmFoldGpuModel::new(H100);
    for sys in ALL_SYSTEMS {
        for ns in 64..1410 {
            let fold = sys.folding_seconds(&baseline, ns);
            let e2e = sys.end_to_end_seconds(&baseline, ns);
            assert!(fold > 0.0, "{} at {ns}", sys.name());
            assert!(e2e >= fold, "{} at {ns}", sys.name());
        }
    }
}

#[test]
fn language_model_systems_have_no_search_wall() {
    let baseline = EsmFoldGpuModel::new(H100);
    for sys in ALL_SYSTEMS {
        for ns in 64..1024 {
            let e2e = sys.end_to_end_seconds(&baseline, ns);
            if sys.uses_language_model() {
                assert!(e2e < 60.0, "{} at {ns}: {e2e}", sys.name());
            } else {
                assert!(e2e > 100.0, "{} at {ns}: {e2e}", sys.name());
            }
        }
    }
}

#[test]
fn ptq4protein_is_the_only_system_faster_than_esmfold() {
    // Fig. 14(a): tensor-wise INT8 gives PTQ4Protein a slight folding edge
    // over vanilla ESMFold; everything else is slower.
    let baseline = EsmFoldGpuModel::new(H100);
    let esm = PpmSystem::EsmFold.folding_seconds(&baseline, 800);
    for sys in ALL_SYSTEMS {
        let fold = sys.folding_seconds(&baseline, 800);
        if sys == PpmSystem::Ptq4Protein {
            assert!(fold < esm);
        } else if sys != PpmSystem::EsmFold {
            assert!(fold > esm, "{}", sys.name());
        }
    }
}
