//! The process-global metrics registry.
//!
//! Counters and histograms are addressed by `&str` name. Until
//! [`enable`] is called every mutation early-returns after one relaxed
//! atomic load; afterwards a mutation locks the name table briefly to
//! intern the metric, then performs plain atomic operations on its cells.
//!
//! Histogram buckets are a fixed power-of-two ladder over microseconds:
//! bucket `i` counts observations in `[2^(i-1), 2^i)` (bucket 0 counts
//! zeros), so no configuration is needed and `observe_us` is a handful of
//! atomic adds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::Value;

/// Number of power-of-two histogram buckets; the last bucket absorbs
/// everything from `2^(BUCKET_COUNT-2)` microseconds (~3 days) upward.
pub const BUCKET_COUNT: usize = 40;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the registry on. Irreversible for the process lifetime; mutations
/// made before this call are lost by design (they never interned a metric).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether [`enable`] has been called.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

fn inner() -> MutexGuard<'static, Inner> {
    static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
    INNER
        .get_or_init(|| Mutex::new(Inner::default()))
        .lock()
        .expect("metrics registry lock poisoned")
}

struct HistogramCore {
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The ladder position of a microsecond value: 0 for 0, otherwise
/// `floor(log2(us)) + 1` clamped to the last bucket.
fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(BUCKET_COUNT - 1)
    }
}

/// Inclusive upper bound (in microseconds) of bucket `index`.
fn bucket_upper_us(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Adds `delta` to the counter `name`. No-op while the registry is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let cell = {
        let mut inner = inner();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    };
    cell.fetch_add(delta, Ordering::Relaxed);
}

/// Records one observation (in microseconds) into the histogram `name`.
/// No-op while the registry is disabled.
pub fn observe_us(name: &str, us: u64) {
    if !is_enabled() {
        return;
    }
    let core = {
        let mut inner = inner();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        )
    };
    core.observe(us);
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
    /// Largest observed value, microseconds.
    pub max_us: u64,
    /// Non-empty buckets as `(inclusive upper bound in us, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time copy of the whole registry, names sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// True when no metric has ever been touched (always the case while the
    /// registry is disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The JSON wire form served by the `metrics` protocol frame:
    /// `{"counters": {..}, "histograms": {..}}` with
    /// histograms as `{count, sum_us, max_us, buckets: [{le_us, count}]}`.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Value::UInt(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(le, c)| {
                        Value::Object(vec![
                            ("le_us".into(), Value::UInt(*le)),
                            ("count".into(), Value::UInt(*c)),
                        ])
                    })
                    .collect();
                (
                    n.clone(),
                    Value::Object(vec![
                        ("count".into(), Value::UInt(h.count)),
                        ("sum_us".into(), Value::UInt(h.sum_us)),
                        ("max_us".into(), Value::UInt(h.max_us)),
                        ("buckets".into(), Value::Array(buckets)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }
}

/// Copies the current registry contents. Cheap and always safe to call; an
/// empty snapshot simply renders as two empty JSON objects.
pub fn snapshot() -> Snapshot {
    if !is_enabled() {
        return Snapshot::default();
    }
    let inner = inner();
    Snapshot {
        counters: inner
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed)))
            .collect(),
        histograms: inner
            .histograms
            .iter()
            .map(|(n, h)| {
                (
                    n.clone(),
                    HistogramSnapshot {
                        count: h.count.load(Ordering::Relaxed),
                        sum_us: h.sum_us.load(Ordering::Relaxed),
                        max_us: h.max_us.load(Ordering::Relaxed),
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let count = b.load(Ordering::Relaxed);
                                (count > 0).then(|| (bucket_upper_us(i), count))
                            })
                            .collect(),
                    },
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global enable/disable behaviour lives in the `disabled_noop` and
    // `enabled_roundtrip` integration binaries (process isolation); these
    // unit tests only cover the pure pieces.

    #[test]
    fn bucket_ladder_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        // Upper bounds are consistent with the index function: every value
        // maps into a bucket whose bound it does not exceed.
        for us in [0u64, 1, 2, 3, 7, 8, 1000, 1024, 1 << 20] {
            let idx = bucket_index(us);
            assert!(us <= bucket_upper_us(idx), "us={us} idx={idx}");
            if idx > 0 {
                assert!(us > bucket_upper_us(idx - 1), "us={us} idx={idx}");
            }
        }
    }

    #[test]
    fn histogram_core_aggregates() {
        let core = HistogramCore::new();
        for us in [0, 1, 5, 5, 1000] {
            core.observe(us);
        }
        assert_eq!(core.count.load(Ordering::Relaxed), 5);
        assert_eq!(core.sum_us.load(Ordering::Relaxed), 1011);
        assert_eq!(core.max_us.load(Ordering::Relaxed), 1000);
        assert_eq!(core.buckets[bucket_index(5)].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn snapshot_value_shape() {
        let snap = Snapshot {
            counters: vec![("exec.tasks".into(), 7)],
            histograms: vec![(
                "exec.map_us".into(),
                HistogramSnapshot {
                    count: 2,
                    sum_us: 10,
                    max_us: 8,
                    buckets: vec![(3, 1), (15, 1)],
                },
            )],
        };
        let value = snap.to_value();
        assert_eq!(
            value
                .field("counters")
                .unwrap()
                .field("exec.tasks")
                .unwrap(),
            &Value::UInt(7)
        );
        let hist = value.field("histograms").unwrap().field("exec.map_us");
        assert_eq!(hist.unwrap().field("count").unwrap(), &Value::UInt(2));
        assert_eq!(snap.counter("exec.tasks"), Some(7));
        assert!(!snap.is_empty());
        assert!(Snapshot::default().is_empty());
    }
}
