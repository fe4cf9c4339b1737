//! Counters, gauges and log-bucketed histograms with Prometheus text
//! exposition.
//!
//! The [`Registry`] hands out shared handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) and renders every registered metric in the Prometheus
//! text exposition format (`# HELP` / `# TYPE` headers, one sample line
//! per series). Histograms use base-2 logarithmic buckets: observation
//! `v` lands in the bucket indexed by `v`'s bit length, so 65 buckets
//! cover the whole `u64` range with no configuration and an O(1)
//! branch-free `observe`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one per possible `u64` bit length (0–64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The histogram bucket an observation falls into: its bit length
/// (0 → bucket 0, 1 → 1, 2..=3 → 2, …, `u64::MAX` → 64).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label), or
/// `None` for the last bucket, whose bound renders as `+Inf`.
#[must_use]
pub fn bucket_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        1..=63 => Some((1u64 << i) - 1),
        _ => None,
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value. For collectors that mirror an externally
    /// maintained monotone counter (e.g. a consistent snapshot taken
    /// under a lock) into the registry at scrape time.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depths, pool sizes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram over `u64` observations (typically
/// microsecond latencies).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current bucket counts, sum and count.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn type_name(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A collection of named metrics rendered together as one exposition page.
///
/// Registration is idempotent: asking for a (name, label-set) that already
/// exists returns the existing handle, so scrape-time registration of
/// dynamically discovered series (e.g. one counter per solver) is safe.
/// Registering the same name with a different metric *type* panics — that
/// is a programming error, not a runtime condition.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a counter with a label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || {
            Handle::Counter(Arc::new(Counter::default()))
        }) {
            Handle::Counter(c) => c,
            other => panic!(
                "metric `{name}` already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a gauge with a label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || {
            Handle::Gauge(Arc::new(Gauge::default()))
        }) {
            Handle::Gauge(g) => g,
            other => panic!(
                "metric `{name}` already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Register (or fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Register (or fetch) a histogram with a label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, labels, || {
            Handle::Histogram(Arc::new(Histogram::default()))
        }) {
            Handle::Histogram(h) => h,
            other => panic!(
                "metric `{name}` already registered as {}",
                other.type_name()
            ),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
        {
            return e.handle.clone();
        }
        let handle = make();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            handle: handle.clone(),
        });
        handle
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format. Series of the same family (name) are grouped under one
    /// `# HELP` / `# TYPE` header, in first-registration order.
    #[must_use]
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("registry lock");
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if seen.contains(&e.name.as_str()) {
                continue;
            }
            seen.push(&e.name);
            header(&mut out, &e.name, &e.help, e.handle.type_name());
            for s in entries.iter().filter(|s| s.name == e.name) {
                render_entry(&mut out, s);
            }
        }
        out
    }
}

/// The type of a sample rendered by [`render_sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// A monotone count.
    Counter,
    /// A current value.
    Gauge,
}

/// Render one unlabeled counter or gauge under its own `# HELP` /
/// `# TYPE` header, in the format of [`Registry::render`]: for values
/// kept outside a registry, such as the fields of a snapshot taken under
/// one lock.
pub fn render_sample(out: &mut String, name: &str, help: &str, kind: SampleKind, value: u64) {
    let type_name = match kind {
        SampleKind::Counter => "counter",
        SampleKind::Gauge => "gauge",
    };
    header(out, name, help, type_name);
    out.push_str(&format!("{name} {value}\n"));
}

fn header(out: &mut String, name: &str, help: &str, type_name: &str) {
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} {type_name}\n",
        escape_help(help)
    ));
}

fn label_eq(a: &[(String, String)], b: &[(&str, &str)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format a label set (plus an optional extra label) as `{k="v",…}`, or
/// the empty string when there are no labels at all.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_entry(out: &mut String, e: &Entry) {
    match &e.handle {
        Handle::Counter(c) => {
            out.push_str(&format!(
                "{}{} {}\n",
                e.name,
                label_block(&e.labels, None),
                c.get()
            ));
        }
        Handle::Gauge(g) => {
            out.push_str(&format!(
                "{}{} {}\n",
                e.name,
                label_block(&e.labels, None),
                g.get()
            ));
        }
        Handle::Histogram(h) => {
            let snap = h.snapshot();
            let top = snap
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, &c) in snap.buckets.iter().enumerate().take(top) {
                cum += c;
                let le = bucket_bound(i).map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    e.name,
                    label_block(&e.labels, Some(("le", &le))),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                e.name,
                label_block(&e.labels, Some(("le", "+Inf"))),
                snap.count
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                e.name,
                label_block(&e.labels, None),
                snap.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                e.name,
                label_block(&e.labels, None),
                snap.count
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Every power-of-two boundary: 2^k − 1 stays in bucket k, 2^k
        // opens bucket k + 1.
        for k in 1..63 {
            let boundary = 1u64 << k;
            assert_eq!(bucket_index(boundary - 1), k, "below 2^{k}");
            assert_eq!(bucket_index(boundary), k + 1, "at 2^{k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn bucket_bounds_are_inclusive_and_contiguous() {
        assert_eq!(bucket_bound(0), Some(0));
        assert_eq!(bucket_bound(1), Some(1));
        assert_eq!(bucket_bound(2), Some(3));
        assert_eq!(bucket_bound(63), Some((1u64 << 63) - 1));
        assert_eq!(bucket_bound(64), None);
        // Each value ≤ its bucket's bound and > the previous bound.
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            if let Some(ub) = bucket_bound(i) {
                assert!(v <= ub, "{v} in bucket {i} bound {ub}");
            }
            if i > 0 {
                let prev = bucket_bound(i - 1).expect("non-final");
                assert!(v > prev, "{v} above bucket {} bound {prev}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_observe_extremes() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[64], 1);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, u64::MAX.wrapping_add(1)); // 0 + 1 + MAX wraps
    }

    #[test]
    fn render_sample_matches_a_registry_series() {
        let r = Registry::new();
        r.counter("hits_total", "Hits.\nAll of them.").set(7);
        r.gauge("depth", "Depth.").set(2);
        let mut out = String::new();
        render_sample(
            &mut out,
            "hits_total",
            "Hits.\nAll of them.",
            SampleKind::Counter,
            7,
        );
        render_sample(&mut out, "depth", "Depth.", SampleKind::Gauge, 2);
        assert_eq!(out, r.render());
    }

    #[test]
    fn render_counters_gauges_histograms() {
        let r = Registry::new();
        let c = r.counter("mgrts_requests_total", "Requests received.");
        c.add(3);
        let g = r.gauge("mgrts_queue_depth", "Queued jobs.");
        g.set(2);
        let h = r.histogram("mgrts_latency_us", "Latency in microseconds.");
        h.observe(5); // bucket 3 (4..=7)
        let text = r.render();
        assert!(text.contains("# TYPE mgrts_requests_total counter\n"));
        assert!(text.contains("mgrts_requests_total 3\n"));
        assert!(text.contains("# TYPE mgrts_queue_depth gauge\n"));
        assert!(text.contains("mgrts_queue_depth 2\n"));
        assert!(text.contains("# TYPE mgrts_latency_us histogram\n"));
        assert!(text.contains("mgrts_latency_us_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("mgrts_latency_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("mgrts_latency_us_sum 5\n"));
        assert!(text.contains("mgrts_latency_us_count 1\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat", "help");
        h.observe(1); // bucket 1
        h.observe(3); // bucket 2
        h.observe(3); // bucket 2
        let text = r.render();
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn labeled_series_group_under_one_family() {
        let r = Registry::new();
        r.counter_with("wins_total", "Race wins.", &[("solver", "csp1")])
            .inc();
        r.counter_with("wins_total", "Race wins.", &[("solver", "csp2")])
            .add(2);
        // Idempotent re-registration returns the same handle.
        r.counter_with("wins_total", "Race wins.", &[("solver", "csp1")])
            .inc();
        let text = r.render();
        assert_eq!(text.matches("# TYPE wins_total counter").count(), 1);
        assert!(text.contains("wins_total{solver=\"csp1\"} 2\n"));
        assert!(text.contains("wins_total{solver=\"csp2\"} 2\n"));
    }
}
