//! The metrics registry: named atomic counters and log-bucketed
//! histograms, rendered as Prometheus-style text exposition.
//!
//! Metrics are **always on** (unlike tracing): every instrument is one or two
//! relaxed atomic operations, cheap enough for per-request paths. Instruments
//! are registered on first use by name and live for the process lifetime
//! (leaked allocations, bounded by the number of distinct metric names), so a
//! hot path can do `obs::counter("dist_fetches").inc()` after caching the
//! `&'static` handle once.
//!
//! [`render_prometheus`] walks the registry and renders every instrument —
//! counters as single samples, histograms as
//! `_count`/`_sum`/`_p50`/`_p95`/`_p99` derived samples — plus any
//! caller-supplied extra gauges (snapshot values that live outside the
//! registry, e.g. a consistent `ServiceStats` scrape).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of power-of-two histogram buckets: bucket `i` counts values with
/// bit length `i`, i.e. bucket 0 holds `v == 0` and bucket `i ≥ 1` holds
/// `2^(i-1) <= v < 2^i`; 64-bit values always fit.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram: one atomic bucket per value bit length plus an
/// exact running sum, so concurrent recording is lock-free and totals are
/// exact (the concurrency test hammers this). Percentiles are extracted from
/// the bucket counts and reported as the containing bucket's upper bound —
/// at most 2× the true value, which is plenty for latency triage.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in (its bit length).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// containing that rank, or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 0 for bucket 0, else 2^i - 1.
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

enum Instrument {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

fn registry() -> &'static RwLock<BTreeMap<&'static str, Instrument>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<&'static str, Instrument>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn get_or_register<T: Default>(
    name: &'static str,
    wrap: fn(&'static T) -> Instrument,
    unwrap: fn(&Instrument) -> Option<&'static T>,
) -> &'static T {
    let reg = registry();
    if let Some(inst) = reg.read().unwrap().get(name) {
        return unwrap(inst)
            .unwrap_or_else(|| panic!("metric {name:?} already registered with a different type"));
    }
    let mut w = reg.write().unwrap();
    if let Some(inst) = w.get(name) {
        return unwrap(inst)
            .unwrap_or_else(|| panic!("metric {name:?} already registered with a different type"));
    }
    let leaked: &'static T = Box::leak(Box::new(T::default()));
    w.insert(name, wrap(leaked));
    leaked
}

/// The process-wide counter named `name`, registered on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    get_or_register(name, Instrument::Counter, |i| match i {
        Instrument::Counter(c) => Some(c),
        _ => None,
    })
}

/// The process-wide histogram named `name`, registered on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    get_or_register(name, Instrument::Histogram, |i| match i {
        Instrument::Histogram(h) => Some(h),
        _ => None,
    })
}

fn write_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Render the whole registry plus caller-supplied `(name, value)` gauges as
/// Prometheus text exposition (`# TYPE` headers, one sample per line,
/// trailing newline).
pub fn render_prometheus(extra: &[(String, f64)]) -> String {
    let mut out = String::new();
    let reg = registry().read().unwrap();
    for (name, inst) in reg.iter() {
        match inst {
            Instrument::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
            }
            Instrument::Histogram(h) => {
                out.push_str(&format!(
                    "# TYPE {name}_count counter\n{name}_count {}\n",
                    h.count()
                ));
                out.push_str(&format!(
                    "# TYPE {name}_sum counter\n{name}_sum {}\n",
                    h.sum()
                ));
                for (q, suffix) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    out.push_str(&format!(
                        "# TYPE {name}_{suffix} gauge\n{name}_{suffix} {}\n",
                        h.quantile(q)
                    ));
                }
            }
        }
    }
    drop(reg);
    for (name, v) in extra {
        out.push_str(&format!("# TYPE {name} gauge\n{name} "));
        write_f64(&mut out, *v);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_exact_under_contention() {
        let c = counter("test_contended_counter");
        let h = histogram("test_contended_hist");
        let threads = 8u64;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        assert_eq!(h.count(), threads * per_thread);
        // Sum of 0..threads*per_thread.
        let n = threads * per_thread;
        assert_eq!(h.sum(), n * (n - 1) / 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        // Ranks: p50 -> 3rd of 5 sorted obs (value 2, bucket upper 3).
        assert_eq!(h.quantile(0.5), 3);
        // p99 -> 5th obs (1000, bit length 10, upper bound 1023).
        assert_eq!(h.quantile(0.99), 1023);
        // Quantiles are monotone in q.
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
    }

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn registry_returns_the_same_instrument_and_renders() {
        let a = counter("test_registry_counter");
        let b = counter("test_registry_counter");
        assert!(std::ptr::eq(a, b));
        a.add(41);
        b.inc();
        histogram("test_registry_hist").record(100);
        let text = render_prometheus(&[("extra_metric".to_string(), 2.5)]);
        assert!(text.contains("# TYPE test_registry_counter counter"));
        assert!(text.contains("test_registry_counter 42"));
        assert!(text.contains("test_registry_hist_count 1"));
        assert!(text.contains("test_registry_hist_sum 100"));
        assert!(text.contains("test_registry_hist_p99 127"));
        assert!(text.contains("extra_metric 2.5"));
        assert!(text.ends_with('\n'));
        // Every non-comment line is `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(parts.next().is_none(), "bad exposition line: {line}");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
        }
    }
}
