//! Measurement helpers shared by the workloads: the benchmark-side span
//! recorder, percentiles, seeds, and the `rc4-obs` registry delta.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use rc4_obs::metrics::Snapshot;

/// Spans recorded by the benchmark around its calls into a layer's public
/// API. Nothing is recorded inside the crates; a disabled recorder only
/// runs the closure.
pub struct Trace {
    on: bool,
    /// Total µs per span name.
    spans: Mutex<BTreeMap<&'static str, f64>>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            spans: Mutex::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (out, us) = timed(f);
        let mut spans = self.spans.lock().expect("span table lock poisoned");
        *spans.entry(name).or_insert(0.0) += us;
        out
    }

    /// Total µs under spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span table lock poisoned");
        spans.get(name).copied().unwrap_or(0.0)
    }
}

/// Times `f` in microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile that still leaves at least ten samples above it,
/// rounded down to a tenth of a percent: p99.9 needs 10,000 samples, p90
/// needs 100. With fewer than 11 samples that is the median.
pub fn tail_percentile(samples: usize) -> f64 {
    if samples <= 10 {
        return 50.0;
    }
    let p = (100.0 * (1.0 - 10.0 / samples as f64) * 10.0).floor() / 10.0;
    p.max(50.0)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// SplitMix64 finaliser: derives independent seeds from the benchmark seed.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Difference of two `rc4-obs` registry snapshots (counters and histogram
/// sums), taken around the traced passes.
pub struct ObsDelta {
    before: Snapshot,
    after: Snapshot,
}

impl ObsDelta {
    pub fn new(before: Snapshot, after: Snapshot) -> Self {
        ObsDelta { before, after }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// Sum of the µs observations added to histogram `name`.
    pub fn histogram_sum_us(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| {
            s.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, h)| h.sum_us)
        };
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_above() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(215), 95.3);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }
}
