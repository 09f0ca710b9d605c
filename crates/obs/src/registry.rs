//! The metrics registry, the disabled-by-default [`TelemetryHandle`]
//! that threads it through the serving path, and snapshot exposition.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use qecool_sfq::budget::CycleHistogram;

use crate::counters::{Counter, Gauge, Histogram};

/// One registered metric, by kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    /// Optional `(key, value)` label, e.g. `("shard", "2")` — enough for
    /// the per-shard metrics this fabric exposes without growing a full
    /// label-set model.
    label: Option<(String, String)>,
    help: String,
    metric: Metric,
}

/// A process-local metrics registry with **get-or-register** semantics:
/// registering the same `(name, label)` twice returns the same
/// underlying metric, so every shard's service instruments the shared
/// fabric-wide counters instead of shadowing them.
///
/// Registration takes a short mutex; it happens at construction time
/// (service/shard setup), never on the per-round path — hot-path
/// writers hold `Arc`s to the metrics themselves.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Anchor for [`MetricsRegistry::now_ns`] stage timestamps.
    start: Instant,
    entries: Mutex<Vec<Entry>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry anchored at the current instant.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Monotonic nanoseconds since the registry was created — the
    /// timestamp every stage-latency segment is measured in.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn get_or_register<T>(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        wrap: impl Fn(Arc<T>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
        fresh: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut entries = self.entries.lock();
        if let Some(entry) = entries.iter().find(|e| {
            e.name == name && e.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        }) {
            return unwrap(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric '{name}' already registered as a {}",
                    entry.metric.kind()
                )
            });
        }
        let metric = Arc::new(fresh());
        entries.push(Entry {
            name: name.to_owned(),
            label: label.map(|(k, v)| (k.to_owned(), v.to_owned())),
            help: help.to_owned(),
            metric: wrap(Arc::clone(&metric)),
        });
        metric
    }

    /// Registers (or finds) an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_labeled(name, None, help)
    }

    /// Registers (or finds) a counter with an optional `(key, value)`
    /// label — the per-shard form.
    ///
    /// # Panics
    ///
    /// Panics if `(name, label)` is already registered as a different
    /// kind.
    pub fn counter_labeled(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
    ) -> Arc<Counter> {
        self.get_or_register(
            name,
            label,
            help,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Registers (or finds) an up/down gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_register(
            name,
            None,
            help,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Registers (or finds) a striped stage histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.get_or_register(
            name,
            None,
            help,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// A point-in-time aggregation of every registered metric, sorted by
    /// `(name, label)` so renderings are stable.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock();
        let mut out: Vec<SnapshotEntry> = entries
            .iter()
            .map(|e| SnapshotEntry {
                name: e.name.clone(),
                label: e.label.clone(),
                help: e.help.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.value()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.value()),
                    Metric::Histogram(h) => {
                        let (hist, sum) = h.merged();
                        SnapshotValue::Histogram {
                            hist: Box::new(hist),
                            sum,
                        }
                    }
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        Snapshot { entries: out }
    }
}

/// The handle instrumentation sites branch on: either disabled (holds
/// nothing — the zero-cost default) or enabled around a shared
/// [`MetricsRegistry`].
///
/// Cloning is shallow: every clone of an enabled handle reports into the
/// same registry, which is how one registry spans all shards of a
/// fabric.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    registry: Option<Arc<MetricsRegistry>>,
}

impl TelemetryHandle {
    /// The default: no registry, no instrumentation, no cost beyond an
    /// `Option` branch at each site.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// A handle around a fresh registry.
    pub fn enabled() -> Self {
        Self {
            registry: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// A handle around an existing registry.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry: Some(registry),
        }
    }

    /// Whether this handle carries a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Snapshots the registry, when enabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.registry {
            Some(_) => write!(f, "TelemetryHandle(enabled)"),
            None => write!(f, "TelemetryHandle(disabled)"),
        }
    }
}

/// Two handles are equal when they are both disabled or share the same
/// registry — the identity the config structs' `PartialEq` needs.
impl PartialEq for TelemetryHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.registry, &other.registry) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The aggregated value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotonic count (stripes summed).
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Merged stage histogram plus the exact sum of recorded values.
    Histogram {
        /// Stripe-merged log₂ histogram (boxed: the bucket array would
        /// otherwise dwarf the other variants).
        hist: Box<CycleHistogram>,
        /// Sum of every recorded value (the Prometheus `_sum` series).
        sum: u64,
    },
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric name (`qecool_*`).
    pub name: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
    /// One-line help string.
    pub help: String,
    /// Aggregated value.
    pub value: SnapshotValue,
}

/// A point-in-time view of every registered metric, with renderers for
/// both exposition formats the workspace speaks.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The entries, sorted by `(name, label)`.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of a counter across all of its labels (a fabric-wide total
    /// for per-shard counters; the plain value for unlabeled ones).
    /// Returns 0 when the name is not registered as a counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.value {
                SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// An unlabeled gauge's level, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label.is_none())
            .and_then(|e| match e.value {
                SnapshotValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// A histogram's `(merged histogram, sum)`, if registered.
    pub fn histogram(&self, name: &str) -> Option<(CycleHistogram, u64)> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label.is_none())
            .and_then(|e| match &e.value {
                SnapshotValue::Histogram { hist, sum } => Some((**hist, *sum)),
                _ => None,
            })
    }

    /// Renders Prometheus-style text exposition: `# HELP` / `# TYPE`
    /// per family, one sample line per entry, histograms as cumulative
    /// `_bucket{le="..."}` series (log₂ upper bounds, trimmed past the
    /// last non-empty bucket) plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for entry in &self.entries {
            if last_family != Some(entry.name.as_str()) {
                let kind = match entry.value {
                    SnapshotValue::Counter(_) => "counter",
                    SnapshotValue::Gauge(_) => "gauge",
                    SnapshotValue::Histogram { .. } => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
                let _ = writeln!(out, "# TYPE {} {kind}", entry.name);
                last_family = Some(entry.name.as_str());
            }
            let label = match &entry.label {
                Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
                None => String::new(),
            };
            match &entry.value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{}{label} {v}", entry.name);
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{label} {v}", entry.name);
                }
                SnapshotValue::Histogram { hist, sum } => {
                    let counts = hist.bucket_counts();
                    let top = hist.max_bucket().map_or(0, |b| b + 1);
                    let mut cumulative = 0u64;
                    for (b, &count) in counts.iter().enumerate().take(top) {
                        cumulative += count;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {cumulative}",
                            entry.name,
                            CycleHistogram::bucket_upper_bound(b)
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", entry.name, hist.total());
                    let _ = writeln!(out, "{}_sum {sum}", entry.name);
                    let _ = writeln!(out, "{}_count {}", entry.name, hist.total());
                }
            }
        }
        out
    }

    /// Renders the snapshot as one flat JSON record: a single object
    /// with a string `"name"` and numeric fields. Labels flatten into
    /// the key (`qecool_shard_enqueued_total_shard_0`); histograms
    /// flatten to `_count`, `_sum`, `_p50` and `_p99`.
    ///
    /// `record_name` is the `"name"` field.
    pub fn to_flat_json(&self, record_name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"name\": \"{record_name}\"");
        for entry in &self.entries {
            let key = match &entry.label {
                Some((k, v)) => format!("{}_{k}_{v}", entry.name),
                None => entry.name.clone(),
            };
            match &entry.value {
                SnapshotValue::Counter(v) => {
                    let _ = write!(out, ", \"{key}\": {v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = write!(out, ", \"{key}\": {v}");
                }
                SnapshotValue::Histogram { hist, sum } => {
                    let _ = write!(out, ", \"{key}_count\": {}", hist.total());
                    let _ = write!(out, ", \"{key}_sum\": {sum}");
                    let _ = write!(out, ", \"{key}_p50\": {}", hist.percentile(0.50));
                    let _ = write!(out, ", \"{key}_p99\": {}", hist.percentile(0.99));
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_shares_the_metric() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("qecool_x_total", "x");
        let b = reg.counter("qecool_x_total", "x");
        assert!(Arc::ptr_eq(&a, &b), "same name must be the same counter");
        a.add(0, 2);
        b.add(1, 3);
        assert_eq!(reg.snapshot().counter_total("qecool_x_total"), 5);
    }

    #[test]
    fn labels_distinguish_metrics_and_total_sums_them() {
        let reg = MetricsRegistry::new();
        let s0 = reg.counter_labeled("qecool_shard_total", Some(("shard", "0")), "per shard");
        let s1 = reg.counter_labeled("qecool_shard_total", Some(("shard", "1")), "per shard");
        assert!(!Arc::ptr_eq(&s0, &s1));
        s0.add(0, 7);
        s1.add(0, 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("qecool_shard_total"), 12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("qecool_x", "x");
        let _ = reg.gauge("qecool_x", "x");
    }

    #[test]
    fn handle_equality_is_registry_identity() {
        let a = TelemetryHandle::enabled();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, TelemetryHandle::enabled());
        assert_eq!(TelemetryHandle::disabled(), TelemetryHandle::default());
        assert_ne!(a, TelemetryHandle::disabled());
        assert!(!TelemetryHandle::disabled().is_enabled());
        assert!(a.is_enabled());
    }

    #[test]
    fn prometheus_rendering_has_families_and_values() {
        let reg = MetricsRegistry::new();
        reg.counter("qecool_pushes_total", "pushes").add(0, 4);
        reg.gauge("qecool_open", "open").add(2);
        let h = reg.histogram("qecool_wait_ns", "wait");
        h.record(0, 3);
        h.record(0, 900);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE qecool_pushes_total counter"));
        assert!(text.contains("qecool_pushes_total 4"));
        assert!(text.contains("# TYPE qecool_open gauge"));
        assert!(text.contains("qecool_open 2"));
        assert!(text.contains("# TYPE qecool_wait_ns histogram"));
        assert!(text.contains("qecool_wait_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("qecool_wait_ns_sum 903"));
        assert!(text.contains("qecool_wait_ns_count 2"));
        // Cumulative buckets: the le="1023" bound (bucket of 900) must
        // already include the 3.
        assert!(text.contains("qecool_wait_ns_bucket{le=\"1023\"} 2"));
    }

    #[test]
    fn prometheus_labels_render_per_entry_with_one_family_header() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("qecool_shard_total", Some(("shard", "0")), "s")
            .add(0, 1);
        reg.counter_labeled("qecool_shard_total", Some(("shard", "1")), "s")
            .add(0, 2);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE qecool_shard_total").count(), 1);
        assert!(text.contains("qecool_shard_total{shard=\"0\"} 1"));
        assert!(text.contains("qecool_shard_total{shard=\"1\"} 2"));
    }

    #[test]
    fn snapshot_accessors_read_back() {
        let reg = MetricsRegistry::new();
        reg.gauge("qecool_open", "open").add(3);
        let h = reg.histogram("qecool_wait_ns", "wait");
        h.record(1, 10);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("qecool_open"), Some(3));
        let (hist, sum) = snap.histogram("qecool_wait_ns").unwrap();
        assert_eq!(hist.total(), 1);
        assert_eq!(sum, 10);
        assert!(snap.gauge("qecool_missing").is_none());
        assert!(!snap.is_empty());
    }

    #[test]
    fn now_ns_is_monotone() {
        let reg = MetricsRegistry::new();
        let a = reg.now_ns();
        let b = reg.now_ns();
        assert!(b >= a);
    }
}
