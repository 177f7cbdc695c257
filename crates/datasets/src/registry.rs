use crate::ProteinRecord;
use std::fmt;

/// The evaluation datasets used by the paper (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// CAMEO: continuous evaluation set; short-to-medium targets, all of
    /// which fit a GPU without the chunk option.
    Cameo,
    /// CASP14 (2020): targets up to ~2.2 k residues.
    Casp14,
    /// CASP15 (2022): targets up to 3 364 residues (T1169).
    Casp15,
    /// CASP16 (2024): targets up to 6 879 residues; ground truth unreleased
    /// at paper time, so accuracy experiments exclude it.
    Casp16,
}

/// All four datasets in paper order.
pub const ALL_DATASETS: [Dataset; 4] = [
    Dataset::Cameo,
    Dataset::Casp14,
    Dataset::Casp15,
    Dataset::Casp16,
];

impl Dataset {
    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Cameo => "CAMEO",
            Dataset::Casp14 => "CASP14",
            Dataset::Casp15 => "CASP15",
            Dataset::Casp16 => "CASP16",
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An immutable view over one dataset's records, sorted by length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetView {
    dataset: Dataset,
    records: Vec<ProteinRecord>,
}

impl DatasetView {
    fn new(dataset: Dataset, mut records: Vec<ProteinRecord>) -> Self {
        records.sort_by(|a, b| {
            a.length()
                .cmp(&b.length())
                .then_with(|| a.name().cmp(b.name()))
        });
        DatasetView { dataset, records }
    }

    /// The dataset identity.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// All records, sorted by increasing length.
    pub fn records(&self) -> &[ProteinRecord] {
        &self.records
    }

    /// Looks up a record by name.
    pub fn record(&self, name: &str) -> Option<&ProteinRecord> {
        self.records.iter().find(|r| r.name() == name)
    }

    /// Records no longer than `max_len` (the paper's "fits in 80 GB"-style
    /// filters for Fig. 14).
    pub fn with_max_length(&self, max_len: usize) -> Vec<&ProteinRecord> {
        self.records
            .iter()
            .filter(|r| r.length() <= max_len)
            .collect()
    }

    /// Records strictly longer than `min_len`.
    pub fn with_min_length(&self, min_len: usize) -> Vec<&ProteinRecord> {
        self.records
            .iter()
            .filter(|r| r.length() > min_len)
            .collect()
    }

    /// The longest record.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty (registries are never empty).
    pub fn longest(&self) -> &ProteinRecord {
        self.records.last().expect("registries are never empty")
    }

    /// The shortest record.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty (registries are never empty).
    pub fn shortest(&self) -> &ProteinRecord {
        self.records.first().expect("registries are never empty")
    }
}

/// The full registry of evaluation targets.
///
/// Lengths are pinned so that every quantity the paper derives from them
/// (which proteins OOM, which need chunking, the longest-per-dataset
/// workloads) reproduces. See the crate docs for the named anchor targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registry {
    cameo: DatasetView,
    casp14: DatasetView,
    casp15: DatasetView,
    casp16: DatasetView,
    giants: Vec<ProteinRecord>,
}

impl Registry {
    /// Builds the standard registry used by every experiment.
    pub fn standard() -> Self {
        let rec = |d: Dataset, name: &str, len: usize| ProteinRecord::new(d, name, len);

        // CAMEO: short/medium single-GPU-friendly targets.
        let cameo = vec![
            rec(Dataset::Cameo, "8A3K_A", 64),
            rec(Dataset::Cameo, "8B7Q_A", 96),
            rec(Dataset::Cameo, "8C2M_A", 128),
            rec(Dataset::Cameo, "8D9T_B", 163),
            rec(Dataset::Cameo, "8E4R_A", 201),
            rec(Dataset::Cameo, "8F1P_A", 244),
            rec(Dataset::Cameo, "8G6S_A", 287),
            rec(Dataset::Cameo, "8H3V_A", 333),
            rec(Dataset::Cameo, "8I8W_C", 389),
            rec(Dataset::Cameo, "8J2X_A", 452),
            rec(Dataset::Cameo, "8K7Y_A", 517),
            rec(Dataset::Cameo, "8L4Z_A", 598),
            rec(Dataset::Cameo, "8M9A_A", 676),
            rec(Dataset::Cameo, "8N5B_B", 741),
            rec(Dataset::Cameo, "8P1C_A", 802),
        ];

        // CASP14: includes targets beyond the vanilla-GPU limit.
        let casp14 = vec![
            rec(Dataset::Casp14, "T1024", 408),
            rec(Dataset::Casp14, "T1026", 172),
            rec(Dataset::Casp14, "T1030", 273),
            rec(Dataset::Casp14, "T1031", 95),
            rec(Dataset::Casp14, "T1037", 404),
            rec(Dataset::Casp14, "T1040", 130),
            rec(Dataset::Casp14, "T1042", 276),
            rec(Dataset::Casp14, "T1044", 2180),
            rec(Dataset::Casp14, "T1049", 141),
            rec(Dataset::Casp14, "T1052", 832),
            rec(Dataset::Casp14, "T1061", 949),
            rec(Dataset::Casp14, "T1070", 335),
            rec(Dataset::Casp14, "T1076", 552),
            rec(Dataset::Casp14, "T1080", 133),
            rec(Dataset::Casp14, "T1091", 863),
            rec(Dataset::Casp14, "T1099", 1203),
            rec(Dataset::Casp14, "T1101", 1587),
        ];

        // CASP15: longest target T1169 @3364 (Table 1 workload).
        let casp15 = vec![
            rec(Dataset::Casp15, "T1104", 158),
            rec(Dataset::Casp15, "T1106", 350),
            rec(Dataset::Casp15, "T1114", 472),
            rec(Dataset::Casp15, "T1119", 103),
            rec(Dataset::Casp15, "T1120", 621),
            rec(Dataset::Casp15, "T1121", 735),
            rec(Dataset::Casp15, "T1123", 228),
            rec(Dataset::Casp15, "T1124", 896),
            rec(Dataset::Casp15, "T1129", 404),
            rec(Dataset::Casp15, "T1133", 1083),
            rec(Dataset::Casp15, "T1137", 1328),
            rec(Dataset::Casp15, "T1145", 1712),
            rec(Dataset::Casp15, "T1151", 518),
            rec(Dataset::Casp15, "T1157", 2496),
            rec(Dataset::Casp15, "T1169", 3364),
            rec(Dataset::Casp15, "T1170", 287),
            rec(Dataset::Casp15, "T1176", 2013),
        ];

        // CASP16: anchors R0271 @77 and T1269 @1410; max length 6879.
        let casp16 = vec![
            rec(Dataset::Casp16, "R0271", 77),
            rec(Dataset::Casp16, "T1206", 215),
            rec(Dataset::Casp16, "T1210", 388),
            rec(Dataset::Casp16, "T1212", 504),
            rec(Dataset::Casp16, "T1218", 651),
            rec(Dataset::Casp16, "T1226", 810),
            rec(Dataset::Casp16, "T1231", 1004),
            rec(Dataset::Casp16, "T1243", 1187),
            rec(Dataset::Casp16, "T1269", 1410),
            rec(Dataset::Casp16, "T1271", 1689),
            rec(Dataset::Casp16, "T1278", 2034),
            rec(Dataset::Casp16, "T1284", 2612),
            rec(Dataset::Casp16, "T1290", 3319),
            rec(Dataset::Casp16, "H1301", 4168),
            rec(Dataset::Casp16, "H1308", 5327),
            rec(Dataset::Casp16, "H1317", 6879),
        ];

        // Motivating giants (§3.1); not part of any benchmark average.
        let giants = vec![
            rec(Dataset::Casp16, "TITIN-FRAG", 34_350),
            rec(Dataset::Casp16, "PKZILLA-1", 45_212),
        ];

        Registry {
            cameo: DatasetView::new(Dataset::Cameo, cameo),
            casp14: DatasetView::new(Dataset::Casp14, casp14),
            casp15: DatasetView::new(Dataset::Casp15, casp15),
            casp16: DatasetView::new(Dataset::Casp16, casp16),
            giants,
        }
    }

    /// View over one dataset.
    pub fn dataset(&self, d: Dataset) -> &DatasetView {
        match d {
            Dataset::Cameo => &self.cameo,
            Dataset::Casp14 => &self.casp14,
            Dataset::Casp15 => &self.casp15,
            Dataset::Casp16 => &self.casp16,
        }
    }

    /// The motivating giant proteins (titin fragment, PKZILLA-1).
    pub fn giants(&self) -> &[ProteinRecord] {
        &self.giants
    }

    /// Iterator over every record in every dataset (giants excluded).
    pub fn iter_all(&self) -> impl Iterator<Item = &ProteinRecord> {
        ALL_DATASETS
            .iter()
            .flat_map(move |&d| self.dataset(d).records().iter())
    }

    /// Looks up a record by name across all datasets (giants included).
    pub fn find(&self, name: &str) -> Option<&ProteinRecord> {
        self.iter_all()
            .find(|r| r.name() == name)
            .or_else(|| self.giants.iter().find(|r| r.name() == name))
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_targets_are_pinned() {
        let reg = Registry::standard();
        assert_eq!(reg.find("R0271").unwrap().length(), 77);
        assert_eq!(reg.find("T1269").unwrap().length(), 1410);
        assert_eq!(reg.find("T1169").unwrap().length(), 3364);
        assert_eq!(reg.dataset(Dataset::Casp16).longest().length(), 6879);
        assert_eq!(reg.find("PKZILLA-1").unwrap().length(), 45_212);
    }

    #[test]
    fn cameo_fits_without_chunk() {
        // Paper: CAMEO is fully processable without the chunk option.
        let reg = Registry::standard();
        assert!(reg.dataset(Dataset::Cameo).longest().length() <= 1410);
    }

    #[test]
    fn views_are_sorted_by_length() {
        let reg = Registry::standard();
        for d in ALL_DATASETS {
            let v = reg.dataset(d);
            assert!(!v.records().is_empty());
            for w in v.records().windows(2) {
                assert!(w[0].length() <= w[1].length());
            }
        }
    }

    #[test]
    fn filters_partition_records() {
        let reg = Registry::standard();
        let v = reg.dataset(Dataset::Casp15);
        let short = v.with_max_length(1410);
        let long = v.with_min_length(1410);
        assert_eq!(short.len() + long.len(), v.records().len());
        assert!(long.iter().all(|r| r.length() > 1410));
    }

    #[test]
    fn find_and_record_agree() {
        let reg = Registry::standard();
        let by_find = reg.find("T1044").unwrap();
        let by_view = reg.dataset(Dataset::Casp14).record("T1044").unwrap();
        assert_eq!(by_find, by_view);
        assert!(reg.find("NOPE").is_none());
    }

    #[test]
    fn iter_all_counts() {
        let reg = Registry::standard();
        let total: usize = ALL_DATASETS
            .iter()
            .map(|&d| reg.dataset(d).records().len())
            .sum();
        assert_eq!(reg.iter_all().count(), total);
        assert_eq!(total, 15 + 17 + 17 + 16);
    }
}
