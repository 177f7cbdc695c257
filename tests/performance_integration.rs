//! Cross-crate integration tests of the performance stack: accelerator
//! simulator vs GPU models vs cost model, and the headline paper claims.

use lightnobel::perf::PerfComparison;
use ln_accel::{Accelerator, Bound, HwConfig};
use ln_datasets::{Dataset, Registry};
use ln_gpu::esmfold::ExecOptions;
use ln_gpu::{A100, H100};

#[test]
fn simulator_throughput_is_physically_bounded() {
    // The accelerator can never beat its own HBM moving the encoded bytes.
    let accel = Accelerator::new(HwConfig::paper());
    for ns in [512usize, 1024, 2048] {
        let report = accel.simulate(ns);
        let min_cycles = report.total_hbm_bytes() as f64 / accel.hw().hbm_bytes_per_cycle();
        assert!(
            report.total_cycles() as f64 >= min_cycles,
            "ns {ns}: {} cycles < physical floor {min_cycles}",
            report.total_cycles()
        );
    }
}

/// One stage of one block: (name, RMPU, VVPU and HBM cycles, HBM bytes,
/// binding resource).
type StagePin = (&'static str, u64, u64, u64, u64, Bound);

#[test]
fn accelerator_model_is_pinned_to_absolute_values() {
    // (ns, total_seconds bits, peak_memory_bytes bits, per-block stages).
    // Any edit to a cycle, byte or fill/drain constant moves a value here.
    #[rustfmt::skip]
    const PINS: [(usize, u64, u64, [StagePin; 8]); 3] = [
        (
            77,
            0x3f916ec4d1223e66,
            0x41c9abc212000000,
            [
                ("seq_attention", 18346, 46, 353, 630784, Bound::Rmpu),
                ("seq_transition", 17522, 46, 353, 630784, Bound::Rmpu),
                ("outer_product_mean", 2704, 46, 950, 1707552, Bound::Rmpu),
                ("tri_mul_outgoing", 9094, 6487, 2291, 4126584, Bound::Rmpu),
                ("tri_mul_incoming", 9094, 6487, 2291, 4126584, Bound::Rmpu),
                ("tri_attn_starting", 7559, 8294, 2964, 5336100, Bound::Vvpu),
                ("tri_attn_ending", 7559, 8294, 2964, 5336100, Bound::Vvpu),
                ("pair_transition", 11858, 2364, 950, 1707552, Bound::Rmpu),
            ],
        ),
        (
            1410,
            0x40128b56eeaccf09,
            0x41e1d1a212000000,
            [
                ("seq_attention", 596979, 838, 6410, 11550720, Bound::Rmpu),
                ("seq_transition", 320854, 838, 6410, 11550720, Bound::Rmpu),
                ("outer_product_mean", 884854, 838, 317741, 572572800, Bound::Rmpu),
                ("tri_mul_outgoing", 4198826, 2174488, 767871, 1383717600, Bound::Rmpu),
                ("tri_mul_incoming", 4198826, 2174488, 767871, 1383717600, Bound::Rmpu),
                ("tri_attn_starting", 4834605, 4830465, 992935, 1789290000, Bound::Rmpu),
                ("tri_attn_ending", 4834605, 4830465, 992935, 1789290000, Bound::Rmpu),
                ("pair_transition", 3976200, 792136, 317741, 572572800, Bound::Rmpu),
            ],
        ),
        (
            3364,
            0x404295833680c58e,
            0x4201de5c86000000,
            [
                ("seq_attention", 2337233, 1998, 15294, 27557888, Bound::Rmpu),
                ("seq_transition", 765497, 1998, 15294, 27557888, Bound::Rmpu),
                ("outer_product_mean", 5032544, 1998, 1808609, 3259150848, Bound::Rmpu),
                ("tri_mul_outgoing", 33497615, 12377420, 4370801, 7876281216, Bound::Rmpu),
                ("tri_mul_incoming", 33497615, 12377420, 4370801, 7876281216, Bound::Rmpu),
                ("tri_attn_starting", 46713948, 43409375, 5651896, 10184846400, Bound::Rmpu),
                ("tri_attn_ending", 46713948, 43409375, 5651896, 10184846400, Bound::Rmpu),
                ("pair_transition", 22632992, 4508919, 1808609, 3259150848, Bound::Rmpu),
            ],
        ),
    ];
    let accel = Accelerator::new(HwConfig::paper());
    for (ns, seconds, peak, stages) in PINS {
        let report = accel.simulate(ns);
        assert_eq!(report.total_seconds().to_bits(), seconds, "ns {ns}");
        assert_eq!(accel.peak_memory_bytes(ns).to_bits(), peak, "ns {ns}");
        let got: Vec<StagePin> = report
            .per_block_stages
            .iter()
            .map(|s| {
                (
                    s.stage.name(),
                    s.rmpu_cycles,
                    s.vvpu_cycles,
                    s.hbm_cycles,
                    s.hbm_bytes,
                    s.bound_by(),
                )
            })
            .collect();
        assert_eq!(got, stages, "ns {ns}");
    }

    // Table 2: 178.694 mm² and 67 890.252 mW.
    let total = ln_accel::power::area_power(&HwConfig::paper()).total;
    assert_eq!(total.area_mm2.to_bits(), 0x406656353f7ced91);
    assert_eq!(total.power_mw.to_bits(), 0x40f09324083126e9);
    assert_eq!(PerfComparison::paper().max_supported_length(), 10125);
}

#[test]
fn headline_claims_reproduce_in_shape() {
    let perf = PerfComparison::paper();
    let reg = Registry::standard();

    // §8.2: with the chunk option LightNobel wins by mid-single-digit
    // factors across datasets.
    for d in [Dataset::Casp14, Dataset::Casp15] {
        let lengths: Vec<usize> = reg
            .dataset(d)
            .records()
            .iter()
            .map(|r| r.length())
            .collect();
        for device in [&A100, &H100] {
            let s = perf
                .mean_speedup(&lengths, device, ExecOptions::chunk4())
                .expect("chunked runs fit");
            assert!(
                s > 1.5,
                "{} chunked speedup on {}: {s}",
                device.name,
                d.name()
            );
        }
    }

    // §8.3: peak-memory reduction grows with length, exceeding 20x well
    // before the CASP16 maximum.
    let (v1, _, l1) = perf.peak_memory(512);
    let (v2, _, l2) = perf.peak_memory(3364);
    assert!(v2 / l2 > v1 / l1, "reduction must grow with length");
    assert!(v2 / l2 > 20.0, "reduction at 3364: {}", v2 / l2);
}

#[test]
fn gpu_oom_frontier_matches_dataset_design() {
    // The registry encodes the paper's operating points: T1269 is the
    // longest vanilla-GPU protein; everything in CAMEO runs unchunked.
    let perf = PerfComparison::paper();
    let reg = Registry::standard();
    let gpu = perf.gpu(&H100);
    assert!(gpu.fits_memory(
        reg.find("T1269").expect("pinned").length(),
        ExecOptions::vanilla()
    ));
    for r in reg.dataset(Dataset::Cameo).records() {
        assert!(
            gpu.fits_memory(r.length(), ExecOptions::vanilla()),
            "CAMEO target {} must fit without chunking",
            r.name()
        );
    }
    // But the longest CASP16 target needs LightNobel (or chunking).
    let h1317 = reg.find("H1317").expect("pinned").length();
    assert!(!gpu.fits_memory(h1317, ExecOptions::vanilla()));
    assert!(perf.accel().fits_memory(h1317));
}

#[test]
fn accelerator_beats_both_gpus_on_chunk_required_proteins() {
    let perf = PerfComparison::paper();
    for ns in [2000usize, 3364, 5000] {
        for device in [&A100, &H100] {
            let s = perf.folding_speedup(ns, device, ExecOptions::chunk4());
            let f = s.factor().expect("chunked fits");
            assert!(f > 1.0, "{} at {ns}: {f}", device.name);
        }
    }
}

#[test]
fn energy_advantage_exceeds_silicon_advantage() {
    // The accelerator wins on performance *and* watts, so the efficiency
    // gain must exceed the raw speedup.
    use lightnobel::perf::GPU_ENVELOPES;
    let perf = PerfComparison::paper();
    for env in GPU_ENVELOPES {
        let device = if env.name == "A100" { &A100 } else { &H100 };
        let speedup = perf
            .folding_speedup(1200, device, ExecOptions::chunk4())
            .factor()
            .expect("fits");
        let gain = perf
            .power_efficiency_gain(1200, device, env, ExecOptions::chunk4())
            .expect("fits");
        assert!(
            gain > speedup,
            "{}: gain {gain} vs speedup {speedup}",
            env.name
        );
    }
}

#[test]
fn every_consumer_of_the_memory_model_agrees_at_the_papers_lengths() {
    use lightnobel::footprint::FootprintModel;
    use ln_ppm::cost::ExecMode;
    use ln_quant::scheme::AaqConfig;
    use ln_quant::ActPrecision::Fp32;
    use ln_serve::{Backend, GpuBackend, LightNobelBackend};

    let perf = PerfComparison::paper();
    let (accel, cost) = (perf.accel(), perf.accel().cost());
    let cfg = cost.config();
    let ln = LightNobelBackend::paper("LightNobel");
    let gpu = GpuBackend::a100_chunk4();
    let chunk4 = ExecMode::Chunked { rows: 4 };
    for ns in [77usize, 1410, 3364] {
        let tokenwise = cost.peak_activation_bytes_tokenwise(ns, &AaqConfig::paper());
        let ln_peak = tokenwise + cost.trunk_weight_bytes_int16();
        assert_eq!(accel.peak_memory_bytes(ns), ln_peak);
        assert_eq!(ln.batch_peak_bytes_at(&[ns], Fp32), ln_peak);

        let fp16_weights = cost.total_weight_bytes_fp16();
        let chunked = cost.peak_activation_bytes(ns, chunk4) + fp16_weights;
        assert_eq!(gpu.batch_peak_bytes_at(&[ns], Fp32), chunked);
        assert_eq!(
            gpu.model().peak_memory_bytes(ns, ExecOptions::chunk4()),
            chunked
        );
        let vanilla = cost.peak_activation_bytes(ns, ExecMode::Vanilla) + fp16_weights;
        assert_eq!(perf.peak_memory(ns), (vanilla, chunked, ln_peak));

        let per_block = FootprintModel::paper().fp16_activation_bytes(ns);
        assert_eq!(
            per_block * (cfg.blocks * cfg.recycles) as f64,
            perf.memory_footprint(ns).0
        );

        // A batch charges weights once and activations per sequence.
        for (backend, activation) in [
            (&ln as &dyn Backend, tokenwise),
            (&gpu, cost.peak_activation_bytes(ns, chunk4)),
        ] {
            assert_eq!(
                backend.batch_peak_bytes_at(&[ns, ns], Fp32),
                backend.weight_bytes() + 2.0 * activation
            );
        }
    }
}
