//! A compact HBM2E timing model (the Ramulator substitute, §6).
//!
//! Five HBM2E stacks (80 GB, 2 TB/s aggregate) are modelled as independent
//! channels with 64-byte bursts and a 1 KiB row buffer. Transfers are
//! striped round-robin across channels; sequential streams pay one
//! row-activate per row of data, strided/random streams pay more —
//! capturing the burst-length-alignment effects the paper simulates with
//! Ramulator.

use crate::HwConfig;

/// Access pattern of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Dense sequential stream (weight/token block reads, output writes).
    Sequential,
    /// Strided stream with the given stride in bytes (column-wise walks).
    Strided {
        /// Distance between consecutive accessed elements, in bytes.
        stride: usize,
    },
    /// No locality: every burst opens a new row.
    Random,
}

/// The HBM2E channel model.
#[derive(Debug, Clone, PartialEq)]
pub struct HbmModel {
    channels: usize,
    bytes_per_burst: usize,
    row_bytes: usize,
    /// Core cycles to stream one burst on one channel.
    burst_cycles: f64,
    /// Core-cycle penalty for a row-buffer miss (activate + precharge).
    row_miss_cycles: f64,
}

impl HbmModel {
    /// Builds the model from the hardware configuration (5 stacks × 8
    /// channels).
    pub fn new(hw: &HwConfig) -> Self {
        let channels = 40;
        let per_channel_bw = hw.hbm_bandwidth_bytes_per_s / channels as f64; // B/s
        let bytes_per_burst = 64;
        let burst_seconds = bytes_per_burst as f64 / per_channel_bw;
        HbmModel {
            channels,
            bytes_per_burst,
            row_bytes: 1024,
            burst_cycles: burst_seconds / hw.cycle_seconds(),
            // ~45 ns tRC at 1 GHz.
            row_miss_cycles: 45.0 * hw.clock_ghz,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Cycles to transfer `bytes` with the given access pattern, using all
    /// channels.
    pub fn transfer_cycles(&self, bytes: u64, pattern: AccessPattern) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let bursts = bytes.div_ceil(self.bytes_per_burst as u64);
        let bursts_per_channel = bursts.div_ceil(self.channels as u64);
        let data_cycles = bursts_per_channel as f64 * self.burst_cycles;
        let misses_per_channel = match pattern {
            AccessPattern::Sequential => {
                // One activate per row of streamed data.
                (bursts_per_channel as f64 * self.bytes_per_burst as f64 / self.row_bytes as f64)
                    .ceil()
            }
            AccessPattern::Strided { stride } => {
                let bursts_per_row =
                    (self.row_bytes / stride.max(self.bytes_per_burst)).max(1) as f64;
                (bursts_per_channel as f64 / bursts_per_row).ceil()
            }
            AccessPattern::Random => bursts_per_channel as f64,
        };
        // Row activates overlap with data on other banks: charge a fraction
        // for sequential/strided (bank-level parallelism hides most), full
        // for random.
        let hidden = match pattern {
            AccessPattern::Sequential => 0.05,
            AccessPattern::Strided { .. } => 0.35,
            AccessPattern::Random => 1.0,
        };
        (data_cycles + misses_per_channel * self.row_miss_cycles * hidden).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HbmModel {
        HbmModel::new(&HwConfig::paper())
    }

    /// Effective bandwidth (bytes/cycle) of a 64 MiB transfer.
    fn effective(m: &HbmModel, pattern: AccessPattern) -> f64 {
        let probe: u64 = 1 << 26;
        probe as f64 / m.transfer_cycles(probe, pattern) as f64
    }

    #[test]
    fn sequential_efficiency_is_high() {
        let m = model();
        let eff = effective(&m, AccessPattern::Sequential);
        let peak = HwConfig::paper().hbm_bytes_per_cycle();
        assert!(eff / peak > 0.85, "sequential efficiency {}", eff / peak);
        assert!(eff <= peak, "cannot exceed peak: {eff} vs {peak}");
    }

    #[test]
    fn random_is_much_slower_than_sequential() {
        let m = model();
        let seq = effective(&m, AccessPattern::Sequential);
        let rnd = effective(&m, AccessPattern::Random);
        assert!(seq / rnd > 5.0, "ratio {}", seq / rnd);
    }

    #[test]
    fn strided_sits_between() {
        let m = model();
        let seq = effective(&m, AccessPattern::Sequential);
        let strided = effective(&m, AccessPattern::Strided { stride: 256 });
        let rnd = effective(&m, AccessPattern::Random);
        assert!(strided < seq && strided > rnd, "{rnd} < {strided} < {seq}");
    }

    #[test]
    fn zero_bytes_zero_cycles() {
        assert_eq!(model().transfer_cycles(0, AccessPattern::Sequential), 0);
    }

    #[test]
    fn cycles_monotone_in_bytes() {
        let m = model();
        let mut prev = 0;
        for shift in [10, 16, 20, 24, 28] {
            let c = m.transfer_cycles(1 << shift, AccessPattern::Sequential);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn never_exceeds_theoretical_bandwidth() {
        // Property: transferred bytes / cycles ≤ peak bytes/cycle for any
        // size and pattern.
        let m = model();
        let peak = HwConfig::paper().hbm_bytes_per_cycle();
        for bytes in [1u64 << 12, 1 << 18, 1 << 24, 1 << 30] {
            for p in [
                AccessPattern::Sequential,
                AccessPattern::Strided { stride: 512 },
                AccessPattern::Random,
            ] {
                let c = m.transfer_cycles(bytes, p).max(1);
                assert!(
                    bytes as f64 / c as f64 <= peak * 1.001,
                    "{bytes} bytes {p:?}: {} > {peak}",
                    bytes as f64 / c as f64
                );
            }
        }
    }
}
