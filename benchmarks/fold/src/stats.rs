//! Order statistics for small samples.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the builder's contract compares with a bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread printed here is the number the
/// driver computes. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return Quartiles {
            q1: data[0],
            median: data[0],
            q3: data[0],
        };
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_matches_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let q = quartiles(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 4.0, 6.0));
        assert_eq!(q.spread(), 1.0);
    }

    #[test]
    fn even_sample_matches_python() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let values: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let q = quartiles(&values);
        assert_eq!((q.q1, q.median, q.q3), (3.5, 24.0, 160.0));
    }

    #[test]
    fn two_values_extrapolate_like_python() {
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_value_is_its_own_quartiles() {
        let q = quartiles(&[3.25]);
        assert_eq!((q.q1, q.median, q.q3), (3.25, 3.25, 3.25));
        assert_eq!(q.spread(), 0.0);
        assert_eq!(median(&[3.25]), 3.25);
    }
}
