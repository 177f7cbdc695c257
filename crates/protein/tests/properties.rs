//! Seeded property tests for geometry and structural metrics: each
//! property runs over `CASES` inputs drawn from `ln_tensor::rng` streams
//! keyed by the property's name and the case index, so a failure names a
//! case that replays.

use ln_protein::generator::{perturbed, rigidly_moved, StructureGenerator};
use ln_protein::geometry::{kabsch, Mat3, Vec3};
use ln_protein::{metrics, Sequence, Structure};
use ln_tensor::rng::{self, Rng, StdRng};

const CASES: u64 = 64;

/// Runs `property` on one fresh stream per case.
fn for_each_case(name: &str, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = rng::stream_indexed(&format!("protein/properties/{name}"), case);
        property(case, &mut rng);
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + rng.gen::<f64>() * (hi - lo)
}

/// A vector with every coordinate uniform in `[-bound, bound)`.
fn arb_vec3(rng: &mut StdRng, bound: f64) -> Vec3 {
    let mut c = || uniform(rng, -bound, bound);
    Vec3::new(c(), c(), c())
}

/// `n` points (drawn from the range) in a 100 Å cube.
fn arb_points(rng: &mut StdRng, n: std::ops::Range<usize>) -> Vec<Vec3> {
    let n = rng.gen_range(n);
    (0..n).map(|_| arb_vec3(rng, 50.0)).collect()
}

#[test]
fn kabsch_rotation_is_proper_orthogonal() {
    for_each_case("kabsch_orthogonal", |case, rng| {
        // Degenerate (collinear/coincident) sets are still required to give a
        // proper rotation.
        let pts = arb_points(rng, 3..20);
        let target: Vec<Vec3> = pts.iter().map(|&p| p + Vec3::new(1.0, 2.0, 3.0)).collect();
        let r = kabsch(&pts, &target).rotation;
        let det = r.det();
        assert!((det - 1.0).abs() < 1e-6, "case {case}: det {det}");
        // Columns orthonormal: R Rᵀ = I.
        let rt = Mat3 {
            rows: [
                [r.rows[0][0], r.rows[1][0], r.rows[2][0]],
                [r.rows[0][1], r.rows[1][1], r.rows[2][1]],
                [r.rows[0][2], r.rows[1][2], r.rows[2][2]],
            ],
        };
        let prod = r.mul_mat(&rt);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.rows[i][j] - expect).abs() < 1e-6, "case {case}");
            }
        }
    });
}

#[test]
fn kabsch_recovers_arbitrary_rigid_motion() {
    let check = |case: &str, pts: &[Vec3], axis: Vec3, angle: f64, tv: Vec3| {
        // Needs an axis to rotate about and a non-degenerate point cloud
        // (not all coincident).
        let spread: f64 = pts.iter().map(|p| p.norm()).sum();
        if axis.norm() <= 1e-3 || spread <= 1.0 {
            return;
        }
        let r = Mat3::rotation(axis, angle);
        let moved: Vec<Vec3> = pts.iter().map(|&p| r.apply(p) + tv).collect();
        let xf = kabsch(pts, &moved);
        for &p in pts {
            assert!(xf.apply(p).distance(r.apply(p) + tv) < 1e-6, "{case}");
        }
    };
    // A shrunk failure once recorded for this property: the zero-angle
    // motion of four coplanar points, three of them on one line.
    let recorded = [
        Vec3::new(0.0, 0.0, 30.125447889548486),
        Vec3::new(0.0, 15.700896508135251, 0.0),
        Vec3::zero(),
        Vec3::new(0.0, 0.0, -40.419890292758765),
    ];
    let axis = Vec3::new(0.0, 0.0, -0.7945242882552327);
    check("recorded case", &recorded, axis, 0.0, Vec3::zero());
    for_each_case("kabsch_rigid_motion", |case, rng| {
        let pts = arb_points(rng, 4..16);
        let axis = arb_vec3(rng, 1.0);
        let angle = uniform(rng, 0.0, std::f64::consts::TAU);
        let tv = arb_vec3(rng, 30.0);
        check(&format!("case {case}"), &pts, axis, angle, tv);
    });
}

#[test]
fn tm_score_is_bounded_and_symmetric_under_rigid_motion() {
    let check = |case: &str, len: usize, seed: u64| {
        let a = StructureGenerator::new(&format!("pa{seed}")).generate(len);
        let b = perturbed(&a, "pp", 2.0);
        let tm = metrics::tm_score(&b, &a).expect("same length").score;
        assert!((0.0..=1.0).contains(&tm), "{case}");
        // Rigidly moving the model cannot change the score materially.
        let b2 = rigidly_moved(&b, &format!("mv{seed}"));
        let tm2 = metrics::tm_score(&b2, &a).expect("same length").score;
        assert!((tm - tm2).abs() < 0.02, "{case}: {tm} vs {tm2}");
    };
    // A shrunk failure once recorded for this property.
    check("recorded case", 21, 29);
    for_each_case("tm_score", |case, rng| {
        let len = rng.gen_range(20..80usize);
        let seed = rng.gen_range(0..50u64);
        check(&format!("case {case}"), len, seed);
    });
}

#[test]
fn rmsd_is_a_metric_zero_iff_identical() {
    for_each_case("rmsd", |case, rng| {
        let len = rng.gen_range(10..60usize);
        let seed = rng.gen_range(0..20u64);
        let a = StructureGenerator::new(&format!("ra{seed}")).generate(len);
        assert!(metrics::rmsd(&a, &a).expect("same") < 1e-6, "case {case}");
        let b = perturbed(&a, "rp", 1.0);
        let d = metrics::rmsd(&b, &a).expect("same");
        assert!(d > 0.0 && d < 3.0, "case {case}: {d}");
    });
}

#[test]
fn lddt_bounded() {
    for_each_case("lddt", |case, rng| {
        let len = rng.gen_range(10..50usize);
        let noise = uniform(rng, 0.0, 10.0);
        let a = StructureGenerator::new("lddt").generate(len);
        let b = perturbed(&a, "lp", noise);
        let v = metrics::lddt(&b, &a).expect("same");
        assert!((0.0..=1.0).contains(&v), "case {case}: {v}");
    });
}

#[test]
fn sequences_round_trip_through_display() {
    for_each_case("sequence_display", |case, rng| {
        let len = rng.gen_range(0..200usize);
        let seed = rng.gen_range(0..20u64);
        let s = Sequence::random(&format!("s{seed}"), len);
        let back: Sequence = s.to_string().parse().expect("valid codes");
        assert_eq!(s, back, "case {case}");
    });
}

#[test]
fn distance_matrix_satisfies_triangle_inequality() {
    for_each_case("triangle_inequality", |case, rng| {
        let len = rng.gen_range(3..24usize);
        let seed = rng.gen_range(0..10u64);
        let s = StructureGenerator::new(&format!("d{seed}")).generate(len);
        let m = ln_protein::distance_matrix(&s);
        for i in 0..len {
            for j in 0..len {
                for k in 0..len {
                    assert!(m.at(i, j) <= m.at(i, k) + m.at(k, j) + 1e-3, "case {case}");
                }
            }
        }
    });
}

#[test]
fn structure_generation_scales_compactly() {
    let check = |case: &str, len: usize| {
        let s = StructureGenerator::new("scaling").generate(len);
        let rg = s.radius_of_gyration();
        // Must be well below the extended-rod radius of gyration; short
        // chains are naturally less compact, so the bound is loose.
        let rod = len as f64 * 3.8 / 12.0f64.sqrt();
        assert!(rg < rod * 0.75, "{case}: rg {rg} rod {rod}");
    };
    // A shrunk failure once recorded for this property.
    check("recorded case", 62);
    for_each_case("compactness", |case, rng| {
        check(&format!("case {case}"), rng.gen_range(50..250usize));
    });
}

#[test]
fn structure_from_iterator_collects() {
    let s: Structure = (0..5).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
    assert_eq!(s.len(), 5);
}
