//! Allocation-free transport metrics: a log-bucketed latency histogram
//! plus the event-loop server's counters, exposed through `STATS`.
//!
//! [`LatencyHistogram`] is a fixed array of 64 power-of-two buckets of
//! atomic counters — recording is two atomic adds and no allocation, so
//! workers record on the hot path without coordination, and "merging
//! across workers" is free because every worker records into the same
//! shared atomics (a [`HistogramSnapshot`] can also merge explicitly,
//! e.g. to combine per-phase histograms). Percentiles are read from a
//! snapshot; within a bucket the value is estimated at the geometric
//! midpoint, so a reported p99 is accurate to within the bucket's 2×
//! resolution — plenty for a load gate.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets (covers 1 ns .. ~2^63 ns).
pub const BUCKETS: usize = 64;

/// A log-bucketed histogram of nanosecond durations with atomic,
/// allocation-free recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Bucket index for a duration: the position of its highest set bit,
    /// so bucket `i` covers `[2^(i-1), 2^i)` nanoseconds. Edge behavior
    /// is pinned by tests: zero-duration samples land in bucket 0, and
    /// durations at or above the top bucket's lower bound (2^62 ns)
    /// saturate into bucket 63 — they are never dropped and the index
    /// never wraps.
    fn bucket(nanos: u64) -> usize {
        (64 - nanos.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one duration.
    pub fn record(&self, duration: std::time::Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one duration in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// A plain copy of a histogram's buckets: mergeable, and the thing
/// percentiles are read from.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Total samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Add another snapshot's counts into this one (e.g. per-phase or
    /// per-shard histograms).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, estimated at the
    /// geometric midpoint of the containing bucket. Returns 0 for an
    /// empty snapshot.
    pub fn percentile_nanos(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i covers [2^(i-1), 2^i): report the midpoint.
                return match i {
                    0 => 0,
                    1 => 1,
                    i => (1u64 << (i - 1)) + (1u64 << (i - 2)),
                };
            }
        }
        u64::MAX
    }

    /// The `q`-quantile in fractional milliseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_nanos(q) as f64 / 1e6
    }
}

/// Counters for the TCP transport, shared between the event loop, its
/// workers, and `STATS` readers. All fields are monotonic except
/// `connections_open` (a gauge).
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Currently open client connections.
    pub connections_open: AtomicU64,
    /// Connections ever accepted.
    pub connections_total: AtomicU64,
    /// Request frames decoded.
    pub frames_in: AtomicU64,
    /// Response and push frames written.
    pub frames_out: AtomicU64,
    /// Requests answered `OVERLOADED` by admission control instead of
    /// being executed.
    pub shed_count: AtomicU64,
    /// Connections dropped for unrecoverable framing corruption.
    pub protocol_errors: AtomicU64,
    /// Server-side request latency (decode → response enqueued).
    pub latency: LatencyHistogram,
}

impl TransportMetrics {
    /// A fresh zeroed metrics block.
    pub fn new() -> TransportMetrics {
        TransportMetrics::default()
    }

    /// A point-in-time copy for `STATS`.
    pub fn snapshot(&self) -> TransportSnapshot {
        let hist = self.latency.snapshot();
        TransportSnapshot {
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            shed_count: self.shed_count.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            requests_recorded: hist.count(),
            latency_p50_ms: hist.percentile_ms(0.50),
            latency_p95_ms: hist.percentile_ms(0.95),
            latency_p99_ms: hist.percentile_ms(0.99),
        }
    }
}

/// Plain-value copy of [`TransportMetrics`] (what `STATS` reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportSnapshot {
    /// Currently open client connections.
    pub connections_open: u64,
    /// Connections ever accepted.
    pub connections_total: u64,
    /// Requests decoded.
    pub frames_in: u64,
    /// Responses and pushes written.
    pub frames_out: u64,
    /// Requests shed by admission control.
    pub shed_count: u64,
    /// Connections dropped for framing corruption.
    pub protocol_errors: u64,
    /// Samples in the latency histogram.
    pub requests_recorded: u64,
    /// Server-side latency percentiles (milliseconds).
    pub latency_p50_ms: f64,
    /// 95th percentile (milliseconds).
    pub latency_p95_ms: f64,
    /// 99th percentile (milliseconds).
    pub latency_p99_ms: f64,
}

/// One value in the unified [`Metrics`] registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An integer counter or gauge.
    U64(u64),
    /// A float rendered with a fixed number of decimal places (so text
    /// and JSON renderings are bytewise-identical for the same value).
    F64 {
        /// The value.
        value: f64,
        /// Decimal places both renderers emit.
        precision: usize,
    },
}

impl MetricValue {
    fn render(&self) -> String {
        match self {
            MetricValue::U64(v) => v.to_string(),
            MetricValue::F64 { value, precision } => format!("{value:.precision$}"),
        }
    }
}

/// An ordered metric registry: the **single** source every `STATS`
/// rendering draws from. `ServiceStats` assembles one registry and both
/// the JSON (`STATS`) and text (`STATS TEXT`) forms render it entry by
/// entry, so the two surfaces can never drift apart in either names or
/// values.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, MetricValue)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Append an integer metric.
    pub fn push_u64(&mut self, name: &'static str, value: u64) {
        self.entries.push((name, MetricValue::U64(value)));
    }

    /// Append a float metric rendered with `precision` decimal places.
    pub fn push_f64(&mut self, name: &'static str, value: f64, precision: usize) {
        self.entries
            .push((name, MetricValue::F64 { value, precision }));
    }

    /// The registered entries, in registration order.
    pub fn entries(&self) -> &[(&'static str, MetricValue)] {
        &self.entries
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Render as a single-line JSON object, in registration order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\": ");
            out.push_str(&value.render());
        }
        out.push('}');
        out
    }

    /// Render as `name value` lines (the Prometheus-style text form).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(1024), 11);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), 63);
    }

    #[test]
    fn extreme_durations_saturate_into_edge_buckets() {
        let h = LatencyHistogram::new();
        // Zero-duration samples land in bucket 0 and are counted.
        h.record(std::time::Duration::ZERO);
        h.record_nanos(0);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.percentile_nanos(1.0), 0, "zero samples live in bucket 0");

        // Durations above the top log2 bucket saturate into bucket 63 —
        // never wrapped, never dropped. Duration::MAX (> u64::MAX ns) is
        // clamped by record(); u64::MAX exercises bucket() directly.
        let h = LatencyHistogram::new();
        h.record(std::time::Duration::MAX);
        h.record_nanos(u64::MAX);
        h.record_nanos(1u64 << 63);
        assert_eq!(h.count(), 3, "saturated samples must still be counted");
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket(1u64 << 63), BUCKETS - 1);
        let s = h.snapshot();
        // All three sit in the top bucket, whose midpoint estimate is
        // 2^62 + 2^61.
        assert_eq!(s.percentile_nanos(0.5), (1u64 << 62) + (1u64 << 61));
    }

    #[test]
    fn registry_text_and_json_render_identical_values() {
        let mut m = Metrics::new();
        m.push_u64("queries", 42);
        m.push_f64("cache_hit_rate", 0.5, 6);
        m.push_f64("latency_p99_ms", 1.25, 4);
        let json = m.to_json();
        let text = m.to_text();
        assert_eq!(
            json,
            "{\"queries\": 42, \"cache_hit_rate\": 0.500000, \"latency_p99_ms\": 1.2500}"
        );
        assert_eq!(
            text,
            "queries 42\ncache_hit_rate 0.500000\nlatency_p99_ms 1.2500\n"
        );
        // Every entry renders the same byte sequence in both forms.
        for (name, value) in m.entries() {
            assert!(json.contains(&format!("\"{name}\": {}", value.render())));
            assert!(text.contains(&format!("{name} {}", value.render())));
        }
        assert_eq!(m.get("queries"), Some(&MetricValue::U64(42)));
        assert!(m.get("missing").is_none());
    }

    #[test]
    fn percentiles_are_bucket_accurate() {
        let h = LatencyHistogram::new();
        // 90 fast samples (~1 µs) and 10 slow (~1 ms).
        for _ in 0..90 {
            h.record_nanos(1_000);
        }
        for _ in 0..10 {
            h.record_nanos(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.percentile_nanos(0.50);
        assert!((512..2048).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile_nanos(0.99);
        assert!((524_288..2_097_152).contains(&p99), "p99 = {p99}");
        // Within-bucket estimate is the geometric midpoint, so the ratio
        // to the true value is bounded by 2x.
        assert!(p99 as f64 / 1_000_000.0 > 0.5 && (p99 as f64) / 1_000_000.0 < 2.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().percentile_nanos(0.99), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_nanos(100);
        b.record_nanos(100);
        b.record_nanos(1_000_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_nanos(i * 37 + 1);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
