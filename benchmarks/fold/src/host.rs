//! Facts about the host and this process that the results are read against.

use crate::json::{self, Value};

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resets the peak-RSS mark to the current resident set, so the mark read
/// later belongs to what ran in between. Returns whether the reset took:
/// where the kernel or a sandbox refuses it, the peak includes set-up.
pub fn reset_peak_rss() -> bool {
    let before = status_kb("VmHWM:");
    let wrote = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let (after, resident) = (status_kb("VmHWM:"), status_kb("VmRSS:"));
    match (wrote, before, after, resident) {
        // The mark may not rise, and must sit at the resident set give or
        // take pages touched between the two reads.
        (true, Some(before), Some(after), Some(resident)) => {
            after <= before && after <= resident + 1024
        }
        _ => false,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `nproc`, CPU model and pool size, for the result files.
pub fn facts(pool_threads: usize) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    json::obj([
        ("nproc", Value::UInt(nproc() as u64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("pool_threads", Value::UInt(pool_threads as u64)),
    ])
}
