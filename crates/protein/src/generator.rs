//! Deterministic synthetic native-structure generation.
//!
//! The paper evaluates on experimentally-determined CASP/CAMEO structures,
//! which are unavailable here. This module generates *plausible* protein
//! backbones — alternating α-helix, β-strand and coil segments on a compact
//! self-avoiding walk with the canonical 3.8 Å Cα–Cα spacing — that serve as
//! ground truth for TM-Score evaluation and as the source of the distogram
//! that seeds the PPM pair representation.
//!
//! The generator is deterministic per `(label, length)` so that every
//! experiment regenerates identical workloads.

use crate::geometry::{Mat3, Vec3};
use crate::Structure;
use ln_tensor::rng;
use ln_tensor::rng::{Rng, StdRng};

/// Canonical Cα–Cα distance in Ångström.
pub const CA_CA_DISTANCE: f64 = 3.8;

/// Secondary-structure element type used by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecondaryStructure {
    /// α-helix: ~1.5 Å rise per residue, 100° turn, 2.3 Å radius.
    Helix,
    /// β-strand: extended zig-zag, ~3.3 Å rise per residue.
    Strand,
    /// Coil: persistent random walk at full bond length.
    Coil,
}

/// Probability of a helix segment (strand and coil split the rest).
const HELIX_PROB: f64 = 0.40;
/// Probability of a strand segment.
const STRAND_PROB: f64 = 0.25;
/// Minimum segment length in residues.
const MIN_SEGMENT: usize = 4;
/// Maximum segment length in residues.
const MAX_SEGMENT: usize = 12;
/// Strength of the compaction bias pulling the walk toward the centroid
/// (0 = pure walk; ~0.3 gives globular folds).
const COMPACTION: f64 = 0.55;
/// Number of clash-relaxation sweeps.
const RELAX_SWEEPS: usize = 2;

/// Deterministic synthetic native-structure generator.
///
/// # Example
///
/// ```
/// use ln_protein::generator::StructureGenerator;
///
/// let g = StructureGenerator::new("casp16/T1269");
/// let s = g.generate(128);
/// assert_eq!(s.len(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct StructureGenerator {
    label: String,
}

impl StructureGenerator {
    /// Creates a generator seeded by `label`.
    pub fn new(label: &str) -> Self {
        StructureGenerator {
            label: label.to_owned(),
        }
    }

    /// The seed label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Generates a backbone of `len` residues.
    ///
    /// The same `(label, len)` always produces the same structure.
    pub fn generate(&self, len: usize) -> Structure {
        if len == 0 {
            return Structure::default();
        }
        let mut rng = rng::stream_indexed(&self.label, len as u64);
        let mut coords: Vec<Vec3> = Vec::with_capacity(len);
        coords.push(Vec3::zero());

        let mut remaining = len - 1;
        // Target radius of the globule: empirical Rg ≈ 2.2 N^0.38 for real
        // proteins; we aim slightly above to leave room for relaxation.
        let target_radius = 2.6 * (len as f64).powf(0.38);
        // Current local frame: direction of chain propagation plus an
        // orthonormal pair for helical geometry.
        let mut dir = random_unit(&mut rng);
        while remaining > 0 {
            let seg_len = rng.gen_range(MIN_SEGMENT..=MAX_SEGMENT).min(remaining);
            let ss = self.sample_ss(&mut rng);
            let start = *coords.last().expect("non-empty by construction");
            let centroid = centroid_of(&coords);
            // Bias segment direction toward the globule: the further the
            // chain has wandered past the target radius, the stronger the
            // pull back toward the centroid.
            let excursion = ((start - centroid).norm() / target_radius).min(2.5);
            let pull = COMPACTION * excursion;
            let to_center = (centroid - start).normalized();
            let fresh = random_unit(&mut rng);
            dir = (dir * (1.0 - COMPACTION) + fresh * 0.6 + to_center * pull).normalized();
            self.grow_segment(&mut rng, &mut coords, ss, seg_len, dir);
            remaining -= seg_len;
        }
        coords.truncate(len);

        relax_clashes(&mut coords, RELAX_SWEEPS);
        Structure::new(coords)
    }

    fn sample_ss(&self, rng: &mut StdRng) -> SecondaryStructure {
        let x: f64 = rng.gen();
        if x < HELIX_PROB {
            SecondaryStructure::Helix
        } else if x < HELIX_PROB + STRAND_PROB {
            SecondaryStructure::Strand
        } else {
            SecondaryStructure::Coil
        }
    }

    fn grow_segment(
        &self,
        rng: &mut StdRng,
        coords: &mut Vec<Vec3>,
        ss: SecondaryStructure,
        seg_len: usize,
        axis: Vec3,
    ) {
        match ss {
            SecondaryStructure::Helix => {
                // Ideal α-helix: radius 2.3 Å, rise 1.5 Å, 100°/residue.
                let (u, v) = orthonormal_pair(axis);
                let start = *coords.last().expect("non-empty");
                let phase0: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
                let radius = 2.3;
                let rise = 1.5;
                let center = start - helix_point(u, v, axis, radius, rise, phase0, 0);
                for k in 1..=seg_len {
                    coords.push(center + helix_point(u, v, axis, radius, rise, phase0, k));
                }
            }
            SecondaryStructure::Strand => {
                // Extended zig-zag: alternate small perpendicular offsets with
                // ~3.3 Å rise so consecutive Cα stay at bond length.
                let (u, _) = orthonormal_pair(axis);
                let rise = 3.3;
                let wobble = (CA_CA_DISTANCE * CA_CA_DISTANCE - rise * rise).sqrt() / 2.0;
                for k in 1..=seg_len {
                    let prev = *coords.last().expect("non-empty");
                    let side = if k % 2 == 0 { 1.0 } else { -1.0 };
                    let step =
                        (axis * rise + u * (side * 2.0 * wobble)).normalized() * CA_CA_DISTANCE;
                    coords.push(prev + step);
                }
            }
            SecondaryStructure::Coil => {
                let mut d = axis;
                for _ in 0..seg_len {
                    let prev = *coords.last().expect("non-empty");
                    let fresh = random_unit(rng);
                    d = (d * 0.7 + fresh * 0.5).normalized();
                    coords.push(prev + d * CA_CA_DISTANCE);
                }
            }
        }
    }
}

fn helix_point(
    u: Vec3,
    v: Vec3,
    axis: Vec3,
    radius: f64,
    rise: f64,
    phase0: f64,
    k: usize,
) -> Vec3 {
    let theta = phase0 + k as f64 * 100.0f64.to_radians();
    u * (radius * theta.cos()) + v * (radius * theta.sin()) + axis * (rise * k as f64)
}

fn centroid_of(coords: &[Vec3]) -> Vec3 {
    if coords.is_empty() {
        return Vec3::zero();
    }
    coords.iter().fold(Vec3::zero(), |a, &p| a + p) * (1.0 / coords.len() as f64)
}

fn random_unit(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
        );
        let n = v.norm();
        if n > 1e-3 && n <= 1.0 {
            return v * (1.0 / n);
        }
    }
}

/// Returns two unit vectors orthogonal to `w` and to each other.
fn orthonormal_pair(w: Vec3) -> (Vec3, Vec3) {
    let w = w.normalized();
    let helper = if w.x.abs() < 0.9 {
        Vec3::new(1.0, 0.0, 0.0)
    } else {
        Vec3::new(0.0, 1.0, 0.0)
    };
    let u = w.cross(helper).normalized();
    let v = w.cross(u).normalized();
    (u, v)
}

/// Pushes apart non-bonded residues closer than 3.0 Å (steric clashes),
/// leaving bonded neighbours untouched. A few sweeps suffice for the
/// statistics the reproduction needs; exact self-avoidance is not required.
fn relax_clashes(coords: &mut [Vec3], sweeps: usize) {
    const MIN_DIST: f64 = 3.0;
    let n = coords.len();
    for _ in 0..sweeps {
        for i in 0..n {
            for j in (i + 3)..n {
                let d = coords[i].distance(coords[j]);
                if d < MIN_DIST && d > 1e-9 {
                    let push = (coords[j] - coords[i]).normalized() * ((MIN_DIST - d) / 2.0);
                    coords[i] = coords[i] - push;
                    coords[j] = coords[j] + push;
                }
            }
        }
    }
}

/// Generates a *perturbed* copy of a structure with a given coordinate noise
/// level (Å), preserving determinism via a label.
///
/// This models an imperfect prediction: it is used to test that TM-Score
/// degrades smoothly with noise, and by `ln-ppm`'s structure module to map
/// pair-representation error onto coordinate error.
pub fn perturbed(native: &Structure, label: &str, noise: f64) -> Structure {
    let mut rng = rng::stream_indexed(label, native.len() as u64);
    let coords = native
        .coords()
        .iter()
        .map(|&p| {
            p + Vec3::new(
                rng.gen::<f64>() * 2.0 - 1.0,
                rng.gen::<f64>() * 2.0 - 1.0,
                rng.gen::<f64>() * 2.0 - 1.0,
            ) * noise
        })
        .collect();
    Structure::new(coords)
}

/// Applies a deterministic rotation/translation to a structure.
///
/// Useful in tests: structural metrics must be invariant under this map.
pub fn rigidly_moved(s: &Structure, label: &str) -> Structure {
    let mut rng = rng::stream(label);
    let axis = random_unit(&mut rng);
    let angle = rng.gen::<f64>() * std::f64::consts::TAU;
    let rot = Mat3::rotation(axis, angle);
    let t = Vec3::new(
        rng.gen::<f64>() * 40.0 - 20.0,
        rng.gen::<f64>() * 40.0 - 20.0,
        rng.gen::<f64>() * 40.0 - 20.0,
    );
    Structure::new(s.coords().iter().map(|&p| rot.apply(p) + t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = StructureGenerator::new("t");
        assert_eq!(g.generate(64), g.generate(64));
        assert_ne!(g.generate(64), StructureGenerator::new("u").generate(64));
    }

    #[test]
    fn bond_lengths_are_physical() {
        let s = StructureGenerator::new("bonds").generate(200);
        let mut bad = 0;
        for i in 1..s.len() {
            let d = s.distance(i - 1, i);
            // Helix consecutive-residue distance is sqrt((2.3*2sin50°)^2+1.5^2)≈3.8;
            // relaxation may stretch a few bonds slightly.
            if !(2.5..=5.5).contains(&d) {
                bad += 1;
            }
        }
        assert!(bad <= s.len() / 50, "{bad} bad bonds");
    }

    #[test]
    fn structures_are_compact() {
        // Globular proteins: Rg ≈ 2.2 * N^0.38 (empirical); allow wide margin
        // but reject extended chains (Rg ~ N).
        let s = StructureGenerator::new("compact").generate(300);
        let rg = s.radius_of_gyration();
        let extended = 300.0 * CA_CA_DISTANCE / (12.0f64).sqrt(); // rod Rg
        assert!(rg < extended / 3.0, "rg {rg} vs extended {extended}");
        assert!(rg > 5.0, "rg {rg} suspiciously small");
    }

    #[test]
    fn few_steric_clashes_remain() {
        let s = StructureGenerator::new("clash").generate(256);
        let mut clashes = 0;
        for i in 0..s.len() {
            for j in (i + 3)..s.len() {
                if s.distance(i, j) < 2.0 {
                    clashes += 1;
                }
            }
        }
        assert!(clashes < 20, "{clashes} hard clashes");
    }

    #[test]
    fn zero_length_is_empty() {
        assert!(StructureGenerator::new("z").generate(0).is_empty());
    }

    #[test]
    fn perturbed_moves_by_about_noise() {
        let s = StructureGenerator::new("p").generate(100);
        let p = perturbed(&s, "noise", 1.0);
        let mean: f64 = s
            .coords()
            .iter()
            .zip(p.coords())
            .map(|(&a, &b)| a.distance(b))
            .sum::<f64>()
            / s.len() as f64;
        assert!(mean > 0.3 && mean < 2.0, "mean displacement {mean}");
    }

    #[test]
    fn rigid_move_preserves_internal_distances() {
        let s = StructureGenerator::new("r").generate(50);
        let m = rigidly_moved(&s, "move");
        for i in 0..s.len() {
            for j in 0..s.len() {
                assert!((s.distance(i, j) - m.distance(i, j)).abs() < 1e-9);
            }
        }
    }
}
