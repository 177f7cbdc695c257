//! Minimal PDB-format I/O for Cα traces.
//!
//! Predictions are only useful if they can leave the program: this module
//! writes Cα-only PDB files (one `ATOM` record per residue, fixed-column
//! PDB v3.3 format) and reads them back. The writer/reader pair round-trips
//! exactly at PDB's 3-decimal coordinate precision.

use crate::geometry::Vec3;
use crate::{ProteinError, Sequence, Structure};
use std::fmt::Write as _;

/// Three-letter residue names indexed like [`crate::AminoAcid`].
const THREE_LETTER: [&str; 20] = [
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE", "LEU", "LYS", "MET",
    "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL",
];

/// Renders a Cα trace as PDB `ATOM` records (plus `TER`/`END`).
///
/// The sequence provides residue names; if it is shorter than the
/// structure, remaining residues are written as `GLY`.
pub fn to_pdb(structure: &Structure, sequence: &Sequence, chain: char) -> String {
    let mut out = String::new();
    for (i, p) in structure.coords().iter().enumerate() {
        let res = sequence
            .residues()
            .get(i)
            .map(|aa| THREE_LETTER[aa.index()])
            .unwrap_or("GLY");
        // PDB v3.3 fixed columns: ATOM serial name altLoc resName chainID
        // resSeq iCode x y z occupancy tempFactor element.
        let _ = writeln!(
            out,
            "ATOM  {:>5}  CA  {:<3} {}{:>4}    {:>8.3}{:>8.3}{:>8.3}{:>6.2}{:>6.2}           C",
            (i + 1) % 100_000,
            res,
            chain,
            (i + 1) % 10_000,
            p.x,
            p.y,
            p.z,
            1.00,
            0.00
        );
    }
    out.push_str("TER\nEND\n");
    out
}

/// Parses the Cα trace back out of PDB text.
///
/// Only `ATOM` records whose atom name is `CA` are consumed; everything
/// else (headers, `TER`, other atoms) is skipped, so real PDB files read
/// fine as Cα traces.
///
/// # Errors
///
/// Returns [`ProteinError::TooShort`] if no Cα atoms are found, and
/// propagates malformed coordinate fields as [`ProteinError::InvalidResidue`]
/// with the offending line's first character (the closest structured error
/// without widening the error enum for a subordinate feature).
pub fn from_pdb(text: &str) -> Result<Structure, ProteinError> {
    let mut coords = Vec::new();
    for line in text.lines() {
        if !line.starts_with("ATOM") || line.len() < 54 {
            continue;
        }
        let atom_name = line.get(12..16).unwrap_or("").trim();
        if atom_name != "CA" {
            continue;
        }
        let parse = |range: std::ops::Range<usize>| -> Result<f64, ProteinError> {
            // `f64::from_str` reads "NaN" and "inf"; a coordinate is finite.
            line.get(range)
                .unwrap_or("")
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or(ProteinError::InvalidResidue {
                    code: line.chars().next().unwrap_or('?'),
                })
        };
        coords.push(Vec3::new(parse(30..38)?, parse(38..46)?, parse(46..54)?));
    }
    if coords.is_empty() {
        return Err(ProteinError::TooShort { len: 0, min: 1 });
    }
    Ok(Structure::new(coords))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::StructureGenerator;

    #[test]
    fn round_trip_at_pdb_precision() {
        let s = StructureGenerator::new("pdb").generate(48);
        let seq = Sequence::random("pdb", 48);
        let text = to_pdb(&s, &seq, 'A');
        let back = from_pdb(&text).expect("own output parses");
        assert_eq!(back.len(), s.len());
        for (a, b) in s.coords().iter().zip(back.coords()) {
            assert!((a.x - b.x).abs() < 5e-4);
            assert!((a.y - b.y).abs() < 5e-4);
            assert!((a.z - b.z).abs() < 5e-4);
        }
    }

    #[test]
    fn output_is_fixed_column_pdb() {
        let s = StructureGenerator::new("pdbcol").generate(3);
        let seq: Sequence = "WKV".parse().expect("valid codes");
        let text = to_pdb(&s, &seq, 'B');
        let first = text.lines().next().expect("non-empty");
        assert_eq!(&first[0..4], "ATOM");
        assert_eq!(first[12..16].trim(), "CA");
        assert_eq!(first[17..20].trim(), "TRP");
        assert_eq!(first.chars().nth(21), Some('B'));
        // Coordinate columns parse as numbers.
        assert!(first[30..38].trim().parse::<f64>().is_ok());
        assert!(text.ends_with("END\n"));
    }

    #[test]
    fn short_sequences_pad_as_glycine() {
        let s = StructureGenerator::new("pad").generate(4);
        let seq: Sequence = "A".parse().expect("valid");
        let text = to_pdb(&s, &seq, 'A');
        assert!(text.lines().nth(3).expect("4 atoms").contains("GLY"));
    }

    #[test]
    fn foreign_records_are_skipped() {
        let text = "HEADER    TEST\nATOM      1  N   ALA A   1      11.104  13.207   2.100  1.00  0.00           N\nATOM      2  CA  ALA A   1      12.560  13.207   2.100  1.00  0.00           C\nTER\nEND\n";
        let s = from_pdb(text).expect("one CA parses");
        assert_eq!(s.len(), 1);
        assert!((s.coords()[0].x - 12.560).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(
            from_pdb("END\n"),
            Err(ProteinError::TooShort { .. })
        ));
    }

    #[test]
    fn unparsable_and_non_finite_coordinates_are_errors() {
        let line = |x: &str| {
            format!(
                "ATOM      2  CA  ALA A   1    {x:>8}  13.207   2.100  1.00  0.00           C\n"
            )
        };
        assert_eq!(from_pdb(&line("12.560")).expect("finite").len(), 1);
        for bad in ["12.5x0", "NaN", "inf", "-inf", "1e999"] {
            assert!(
                matches!(
                    from_pdb(&line(bad)),
                    Err(ProteinError::InvalidResidue { .. })
                ),
                "accepted coordinate {bad:?}"
            );
        }
    }
}
