use crate::geometry::Vec3;
use crate::ProteinError;
use ln_tensor::Tensor2;

/// A protein backbone structure: one Cα coordinate per residue.
///
/// The PPM predicts backbone geometry; all metrics in this reproduction
/// (TM-Score, RMSD, GDT-TS, lDDT) operate on Cα traces, as the originals do
/// by default.
///
/// # Example
///
/// ```
/// use ln_protein::Structure;
/// use ln_protein::geometry::Vec3;
///
/// let s = Structure::new(vec![Vec3::zero(), Vec3::new(3.8, 0.0, 0.0)]);
/// assert_eq!(s.len(), 2);
/// assert!((s.radius_of_gyration() - 1.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Structure {
    coords: Vec<Vec3>,
}

impl Structure {
    /// Creates a structure from Cα coordinates.
    pub fn new(coords: Vec<Vec3>) -> Self {
        Structure { coords }
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` when the structure has no residues.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinates as a slice.
    pub fn coords(&self) -> &[Vec3] {
        &self.coords
    }

    /// Mutable access to the coordinates.
    pub fn coords_mut(&mut self) -> &mut [Vec3] {
        &mut self.coords
    }

    /// Centroid of the Cα trace (`Vec3::zero` when empty).
    pub fn centroid(&self) -> Vec3 {
        if self.coords.is_empty() {
            return Vec3::zero();
        }
        let sum = self.coords.iter().fold(Vec3::zero(), |acc, &p| acc + p);
        sum * (1.0 / self.coords.len() as f64)
    }

    /// Radius of gyration around the centroid.
    pub fn radius_of_gyration(&self) -> f64 {
        if self.coords.is_empty() {
            return 0.0;
        }
        let c = self.centroid();
        let msd: f64 =
            self.coords.iter().map(|&p| (p - c).norm_sq()).sum::<f64>() / self.coords.len() as f64;
        msd.sqrt()
    }

    /// Distance between residues `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.coords[i].distance(self.coords[j])
    }

    /// Checks that another structure has the same length.
    ///
    /// # Errors
    ///
    /// Returns [`ProteinError::LengthMismatch`] otherwise.
    pub fn check_same_length(&self, other: &Structure) -> Result<(), ProteinError> {
        if self.len() != other.len() {
            return Err(ProteinError::LengthMismatch {
                lhs: self.len(),
                rhs: other.len(),
            });
        }
        Ok(())
    }
}

impl FromIterator<Vec3> for Structure {
    fn from_iter<T: IntoIterator<Item = Vec3>>(iter: T) -> Self {
        Structure {
            coords: iter.into_iter().collect(),
        }
    }
}

/// Computes the `(len, len)` pairwise Cα distance matrix as an `f32` tensor.
///
/// This matrix (binned into a *distogram*) seeds the PPM pair representation
/// and is the source of the token-wise distogram pattern the paper exploits.
pub fn distance_matrix(s: &Structure) -> Tensor2 {
    let n = s.len();
    let mut m = Tensor2::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = s.distance(i, j) as f32;
            m.set(i, j, d);
            m.set(j, i, d);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Structure {
        Structure::new(vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(3.8, 0.0, 0.0),
            Vec3::new(3.8, 3.8, 0.0),
            Vec3::new(0.0, 3.8, 0.0),
        ])
    }

    #[test]
    fn centroid_and_rg() {
        let s = sample();
        let c = s.centroid();
        assert!((c.x - 1.9).abs() < 1e-12 && (c.y - 1.9).abs() < 1e-12);
        // Square of side 3.8: every point is at distance 1.9*sqrt(2).
        assert!((s.radius_of_gyration() - 1.9 * 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let s = sample();
        let m = distance_matrix(&s);
        assert_eq!(m.shape(), (4, 4));
        for i in 0..4 {
            assert_eq!(m.at(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.at(i, j), m.at(j, i));
            }
        }
        assert!((m.at(0, 1) - 3.8).abs() < 1e-6);
        assert!((m.at(0, 2) - (3.8f32 * 2.0f32.sqrt())).abs() < 1e-4);
    }

    #[test]
    fn check_same_length_errors() {
        let s = sample();
        let t = Structure::new(vec![Vec3::zero()]);
        assert!(s.check_same_length(&s).is_ok());
        assert_eq!(
            s.check_same_length(&t),
            Err(ProteinError::LengthMismatch { lhs: 4, rhs: 1 })
        );
    }

    #[test]
    fn empty_structure_is_safe() {
        let s = Structure::default();
        assert!(s.is_empty());
        assert_eq!(s.centroid(), Vec3::zero());
        assert_eq!(s.radius_of_gyration(), 0.0);
    }
}
