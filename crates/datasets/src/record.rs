use crate::Dataset;
use ln_protein::generator::StructureGenerator;
use ln_protein::{Sequence, Structure};
use std::fmt;

/// One protein target in a dataset registry.
///
/// Sequence and native structure are *derived on demand*, deterministically,
/// from the record's `(dataset, name, length)` identity — the registry
/// itself stays tiny.
///
/// # Example
///
/// ```
/// use ln_datasets::{Dataset, ProteinRecord};
///
/// let r = ProteinRecord::new(Dataset::Casp16, "T1269", 1410);
/// assert_eq!(r.sequence().len(), 1410);
/// assert_eq!(r.native_structure().len(), 1410);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProteinRecord {
    dataset: Dataset,
    name: String,
    length: usize,
}

impl ProteinRecord {
    /// Creates a record.
    pub fn new(dataset: Dataset, name: &str, length: usize) -> Self {
        ProteinRecord {
            dataset,
            name: name.to_owned(),
            length,
        }
    }

    /// The dataset this target belongs to.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The target name (e.g. `"T1269"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sequence length in amino acids.
    pub fn length(&self) -> usize {
        self.length
    }

    /// A stable, globally-unique seed label for this target.
    pub fn seed_label(&self) -> String {
        format!("{}/{}", self.dataset.name(), self.name)
    }

    /// The (synthetic, deterministic) amino-acid sequence.
    pub fn sequence(&self) -> Sequence {
        Sequence::random(&self.seed_label(), self.length)
    }

    /// The (synthetic, deterministic) native structure used as ground truth.
    pub fn native_structure(&self) -> Structure {
        StructureGenerator::new(&self.seed_label()).generate(self.length)
    }

    /// The inputs of a fold of this record cut to at most `max_len`
    /// residues: the first residues of [`ProteinRecord::sequence`] and the
    /// native generated at the cut length. `max_len ≥ length` gives the
    /// whole record.
    ///
    /// The sequence is a prefix of the full-length draw, not a fresh draw
    /// at the cut length: [`Sequence::random`] seeds its stream with the
    /// length, so the two differ.
    pub fn inputs(&self, max_len: usize) -> (Sequence, Structure) {
        let len = self.length.min(max_len);
        let sequence = self
            .sequence()
            .residues()
            .iter()
            .take(len)
            .copied()
            .collect();
        let native = StructureGenerator::new(&self.seed_label()).generate(len);
        (sequence, native)
    }
}

impl fmt::Display for ProteinRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({} aa)",
            self.dataset.name(),
            self.name,
            self.length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_artifacts_are_deterministic() {
        let a = ProteinRecord::new(Dataset::Casp15, "T1169", 3364);
        let b = ProteinRecord::new(Dataset::Casp15, "T1169", 3364);
        assert_eq!(a.sequence(), b.sequence());
        // Structures are large; compare a prefix of coordinates.
        let sa = a.native_structure();
        let sb = b.native_structure();
        assert_eq!(sa.coords()[..16], sb.coords()[..16]);
    }

    #[test]
    fn different_targets_differ() {
        let a = ProteinRecord::new(Dataset::Casp16, "T1269", 100);
        let b = ProteinRecord::new(Dataset::Casp16, "T1270", 100);
        assert_ne!(a.sequence(), b.sequence());
    }

    #[test]
    fn inputs_cut_the_full_length_sequence_and_generate_the_native_at_the_cut() {
        let r = ProteinRecord::new(Dataset::Cameo, "7XYZ_A", 120);
        let label = r.seed_label();
        let (seq, native) = r.inputs(48);
        assert_eq!(seq.residues(), &r.sequence().residues()[..48]);
        assert_eq!(native, StructureGenerator::new(&label).generate(48));
        // A fresh draw at the cut length seeds its stream with 48, not 120:
        // a different sequence, which would move every accuracy number.
        assert_ne!(seq, Sequence::random(&label, 48));
        for max_len in [120, 121, usize::MAX] {
            assert_eq!(r.inputs(max_len), (r.sequence(), r.native_structure()));
        }
    }

    #[test]
    fn display_mentions_everything() {
        let r = ProteinRecord::new(Dataset::Cameo, "7XYZ_A", 321);
        let s = r.to_string();
        assert!(s.contains("CAMEO") && s.contains("7XYZ_A") && s.contains("321"));
    }
}
