//! Multimer (protein-complex) support.
//!
//! Proteins frequently form complexes, which inherently increases the
//! sequence length the PPM must process — one of the paper's core
//! motivations (§1: CASP target lengths grew from 770 to 6 879 largely
//! through multimers). A multimer is folded by concatenating its chains
//! into one sequence; the pair representation then spans all inter-chain
//! pairs, and the quadratic token growth hits exactly as the paper
//! describes.

use crate::{FoldingModel, PpmError, PredictionOutput};
use ln_protein::generator::StructureGenerator;
use ln_protein::{Sequence, Structure};

/// A protein complex: an ordered list of chains.
///
/// # Example
///
/// ```
/// use ln_ppm::multimer::Multimer;
/// use ln_protein::Sequence;
///
/// let dimer = Multimer::new(vec![
///     Sequence::random("chain-a", 24),
///     Sequence::random("chain-b", 16),
/// ]);
/// assert_eq!(dimer.total_len(), 40);
/// assert_eq!(dimer.chain_of(30), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Multimer {
    chains: Vec<Sequence>,
}

impl Multimer {
    /// Creates a complex from its chains.
    ///
    /// # Panics
    ///
    /// Panics if no chains are given.
    pub fn new(chains: Vec<Sequence>) -> Self {
        assert!(!chains.is_empty(), "a multimer needs at least one chain");
        Multimer { chains }
    }

    /// The chains.
    pub fn chains(&self) -> &[Sequence] {
        &self.chains
    }

    /// Number of chains.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Total residue count across chains.
    pub fn total_len(&self) -> usize {
        self.chains.iter().map(Sequence::len).sum()
    }

    /// The concatenated sequence the PPM folds.
    pub fn combined_sequence(&self) -> Sequence {
        let mut iter = self.chains.iter();
        let first = iter.next().expect("at least one chain").clone();
        iter.fold(first, |acc, c| acc.concat(c))
    }

    /// Which chain a combined-sequence residue belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `residue >= total_len()`.
    pub fn chain_of(&self, residue: usize) -> usize {
        let mut offset = 0;
        for (idx, c) in self.chains.iter().enumerate() {
            if residue < offset + c.len() {
                return idx;
            }
            offset += c.len();
        }
        panic!(
            "residue {residue} out of range for complex of {} residues",
            self.total_len()
        );
    }

    /// A deterministic synthetic native structure for the assembled
    /// complex (one compact globule spanning all chains, as co-folded
    /// complexes are).
    pub fn native_structure(&self, label: &str) -> Structure {
        StructureGenerator::new(label).generate(self.total_len())
    }

    /// Folds the complex with the given model.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError`] from the folding model.
    pub fn fold(&self, model: &FoldingModel, label: &str) -> Result<PredictionOutput, PpmError> {
        let seq = self.combined_sequence();
        let native = self.native_structure(label);
        model.predict(&seq, &native)
    }

    /// Splits a predicted combined structure back into per-chain
    /// structures.
    ///
    /// # Errors
    ///
    /// Returns [`PpmError::NativeLengthMismatch`] if the structure length
    /// does not match the complex.
    pub fn split_chains(&self, combined: &Structure) -> Result<Vec<Structure>, PpmError> {
        if combined.len() != self.total_len() {
            return Err(PpmError::NativeLengthMismatch {
                sequence: self.total_len(),
                native: combined.len(),
            });
        }
        let mut out = Vec::with_capacity(self.chains.len());
        let mut offset = 0;
        for c in &self.chains {
            out.push(Structure::new(
                combined.coords()[offset..offset + c.len()].to_vec(),
            ));
            offset += c.len();
        }
        Ok(out)
    }

    /// Counts inter-chain residue contacts (Cα pairs within `cutoff` Å
    /// belonging to different chains) — the interface size, the quantity a
    /// complex prediction is judged on.
    ///
    /// # Errors
    ///
    /// Returns [`PpmError::NativeLengthMismatch`] on a length mismatch.
    pub fn interface_contacts(&self, combined: &Structure, cutoff: f64) -> Result<usize, PpmError> {
        if combined.len() != self.total_len() {
            return Err(PpmError::NativeLengthMismatch {
                sequence: self.total_len(),
                native: combined.len(),
            });
        }
        let n = combined.len();
        let mut contacts = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.chain_of(i) != self.chain_of(j) && combined.distance(i, j) <= cutoff {
                    contacts += 1;
                }
            }
        }
        Ok(contacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PpmConfig;
    use ln_protein::metrics;

    fn dimer() -> Multimer {
        Multimer::new(vec![
            Sequence::random("mm-a", 20),
            Sequence::random("mm-b", 14),
        ])
    }

    #[test]
    fn combined_sequence_concatenates_chains() {
        let m = dimer();
        let c = m.combined_sequence();
        assert_eq!(c.len(), 34);
        assert_eq!(&c.residues()[..20], m.chains()[0].residues());
        assert_eq!(&c.residues()[20..], m.chains()[1].residues());
    }

    #[test]
    fn chain_of_maps_residues() {
        let m = dimer();
        assert_eq!(m.chain_of(0), 0);
        assert_eq!(m.chain_of(19), 0);
        assert_eq!(m.chain_of(20), 1);
        assert_eq!(m.chain_of(33), 1);
    }

    #[test]
    fn fold_and_split_round_trip() {
        let m = dimer();
        let model = FoldingModel::new(PpmConfig::tiny());
        let out = m.fold(&model, "dimer-test").expect("complex folds");
        assert_eq!(out.structure.len(), m.total_len());
        let chains = m.split_chains(&out.structure).expect("lengths match");
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].len(), 20);
        assert_eq!(chains[1].len(), 14);
        // The complex prediction matches the complex native.
        let native = m.native_structure("dimer-test");
        let tm = metrics::tm_score(&out.structure, &native)
            .expect("same length")
            .score;
        assert!(tm > 0.5, "complex tm {tm}");
    }

    #[test]
    fn co_folded_complex_has_an_interface() {
        let m = dimer();
        let native = m.native_structure("dimer-iface");
        let contacts = m.interface_contacts(&native, 8.0).expect("lengths match");
        assert!(
            contacts > 0,
            "a compact co-folded complex must have inter-chain contacts"
        );
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let m = dimer();
        let wrong = StructureGenerator::new("w").generate(10);
        assert!(m.split_chains(&wrong).is_err());
        assert!(m.interface_contacts(&wrong, 8.0).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn empty_multimer_panics() {
        let _ = Multimer::new(Vec::new());
    }
}
