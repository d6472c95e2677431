//! Dependency-free metrics: atomic counters, gauges, and log2-bucket
//! histograms behind a shared registry.
//!
//! Instruments are handed out as `Arc`s, so hot paths hold their
//! counter directly (one relaxed atomic op per update) while the
//! registry retains the name → instrument map for snapshotting. The
//! whole registry is `Sync`: the single-threaded engine and the
//! multi-threaded daemon share one type.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a typed
//! [`MetricsSnapshot`]; [`MetricsSnapshot::to_json`] renders it with a
//! stable field order; the unit tests hold that output to its schema.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram over power-of-two buckets: bucket `i` counts observations
/// `v` with `v == 0 ? i == 0 : v.ilog2() + 1 == i` — i.e. bucket 0 is
/// exactly zero, bucket `i ≥ 1` covers `[2^(i-1), 2^i)`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let idx = if v == 0 { 0 } else { v.ilog2() as usize + 1 };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Observation count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// A frozen histogram: non-empty `(log2 bucket, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Sparse buckets: `(index, count)`, index 0 = exactly zero,
    /// index `i ≥ 1` = values in `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

/// Name → instrument registry. Cloneable via `Arc`; lookups lock a
/// mutex, so callers cache the returned `Arc` instrument rather than
/// re-resolving names on hot paths.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh registry behind the shared handle everything passes
    /// around.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Freezes every instrument into a typed snapshot (names sorted).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen view of a registry: sorted `(name, value)` lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one JSON object with a stable shape:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:
    /// {"count":N,"sum":N,"buckets":[[i,n],...]}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{k}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            );
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{idx},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that `json` has the [`MetricsSnapshot::to_json`] shape:
    /// the three sections in order, every instrument name a
    /// `snake_case` identifier, every value a decimal integer — a
    /// structural check, deliberately not a full JSON parser. Returns
    /// the first violation.
    fn validate_json(json: &str) -> Result<(), String> {
        let s = json.trim();
        let body = s
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("not a JSON object")?;
        let mut rest = body;
        for (i, section) in ["counters", "gauges", "histograms"].iter().enumerate() {
            let prefix = if i == 0 {
                format!("\"{section}\":{{")
            } else {
                format!(",\"{section}\":{{")
            };
            rest = rest
                .strip_prefix(prefix.as_str())
                .ok_or_else(|| format!("missing section {section:?}"))?;
            let end = find_brace_close(rest)
                .ok_or_else(|| format!("unterminated section {section:?}"))?;
            let entries = &rest[..end];
            rest = &rest[end + 1..];
            if entries.is_empty() {
                continue;
            }
            for entry in split_top_level(entries) {
                let (name, value) = entry
                    .split_once(':')
                    .ok_or_else(|| format!("bad entry {entry:?} in {section}"))?;
                let name = name
                    .strip_prefix('"')
                    .and_then(|n| n.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted name {name:?} in {section}"))?;
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    return Err(format!("bad instrument name {name:?} in {section}"));
                }
                let ok = if *section == "histograms" {
                    value.starts_with("{\"count\":") && value.ends_with("]}")
                } else {
                    !value.is_empty() && value.chars().all(|c| c.is_ascii_digit())
                };
                if !ok {
                    return Err(format!("bad value {value:?} for {name:?} in {section}"));
                }
            }
        }
        if !rest.is_empty() {
            return Err(format!("trailing content {rest:?}"));
        }
        Ok(())
    }

    /// Index of the `}` closing the object body that starts at `s[0]`
    /// (depth 0 = the section's own close).
    fn find_brace_close(s: &str) -> Option<usize> {
        let mut depth = 0usize;
        for (i, c) in s.char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 0 => return Some(i),
                '}' => depth -= 1,
                _ => {}
            }
        }
        None
    }

    /// Splits `"a":1,"b":{..},"c":2` at top-level commas.
    fn split_top_level(s: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut depth = 0usize;
        let mut start = 0;
        for (i, c) in s.char_indices() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        out.push(&s[start..]);
        out
    }

    #[test]
    fn counters_gauges_histograms_snapshot() {
        let reg = MetricsRegistry::shared();
        let c = reg.counter("sends");
        c.add(3);
        reg.counter("sends").inc(); // same instrument by name
        reg.gauge("scratch_bytes").set(4096);
        let h = reg.histogram("frame_len");
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters, [("sends".to_string(), 4)]);
        assert_eq!(snap.gauges, [("scratch_bytes".to_string(), 4096)]);
        let (_, hist) = &snap.histograms[0];
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, 1030);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1024 → bucket 11.
        assert_eq!(hist.buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn json_shape_is_stable_and_validates() {
        let reg = MetricsRegistry::shared();
        reg.counter("b_count").add(2);
        reg.counter("a_count").add(1);
        reg.gauge("g").set(7);
        reg.histogram("h").observe(5);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a_count\":1,\"b_count\":2},\"gauges\":{\"g\":7},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":5,\"buckets\":[[3,1]]}}}"
        );
        validate_json(&json).expect("own output validates");
    }

    #[test]
    fn empty_registry_validates() {
        let json = MetricsRegistry::shared().snapshot().to_json();
        assert_eq!(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
        validate_json(&json).expect("empty validates");
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{}",
            "{\"counters\":{}}",
            "{\"counters\":{\"Bad Name\":1},\"gauges\":{},\"histograms\":{}}",
            "{\"counters\":{\"x\":\"y\"},\"gauges\":{},\"histograms\":{}}",
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":5}}",
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}trailing",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
