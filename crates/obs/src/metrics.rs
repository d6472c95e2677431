//! Dependency-free metrics: atomic counters and gauges behind a shared
//! registry.
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

/// Name → instrument registry. Cloneable via `Arc`; lookups lock a
/// mutex, so callers cache the returned `Arc` instrument rather than
/// re-resolving names on hot paths.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
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
}

impl MetricsSnapshot {
    /// Renders the snapshot as one JSON object with a stable shape:
    /// `{"counters":{name:N,...},"gauges":{name:N,...}}`.
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
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that `json` has the [`MetricsSnapshot::to_json`] shape:
    /// the two flat sections in order, every instrument name a
    /// `snake_case` identifier, every value a decimal integer — a
    /// structural check, deliberately not a full JSON parser. Returns
    /// the first violation.
    fn validate_json(json: &str) -> Result<(), String> {
        let body = json
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("not a JSON object")?;
        let mut rest = body;
        for (i, section) in ["counters", "gauges"].iter().enumerate() {
            let prefix = if i == 0 {
                format!("\"{section}\":{{")
            } else {
                format!(",\"{section}\":{{")
            };
            rest = rest
                .strip_prefix(prefix.as_str())
                .ok_or_else(|| format!("missing section {section:?}"))?;
            let (entries, tail) = rest
                .split_once('}')
                .ok_or_else(|| format!("unterminated section {section:?}"))?;
            rest = tail;
            if entries.is_empty() {
                continue;
            }
            for entry in entries.split(',') {
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
                if value.is_empty() || !value.chars().all(|c| c.is_ascii_digit()) {
                    return Err(format!("bad value {value:?} for {name:?} in {section}"));
                }
            }
        }
        if !rest.is_empty() {
            return Err(format!("trailing content {rest:?}"));
        }
        Ok(())
    }

    #[test]
    fn counters_and_gauges_snapshot() {
        let reg = MetricsRegistry::shared();
        let c = reg.counter("sends");
        c.add(3);
        reg.counter("sends").inc(); // same instrument by name
        reg.gauge("scratch_bytes").set(4096);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, [("sends".to_string(), 4)]);
        assert_eq!(snap.gauges, [("scratch_bytes".to_string(), 4096)]);
    }

    #[test]
    fn json_shape_is_stable_and_validates() {
        let reg = MetricsRegistry::shared();
        reg.counter("b_count").add(2);
        reg.counter("a_count").add(1);
        reg.gauge("g").set(7);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a_count\":1,\"b_count\":2},\"gauges\":{\"g\":7}}"
        );
        validate_json(&json).expect("own output validates");
    }

    #[test]
    fn empty_registry_validates() {
        let json = MetricsRegistry::shared().snapshot().to_json();
        assert_eq!(json, "{\"counters\":{},\"gauges\":{}}");
        validate_json(&json).expect("empty validates");
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{}",
            "{\"counters\":{}}",
            "{\"counters\":{\"Bad Name\":1},\"gauges\":{}}",
            "{\"counters\":{\"x\":\"y\"},\"gauges\":{}}",
            "{\"counters\":{},\"gauges\":{\"g\":{}}}",
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}",
            "{\"counters\":{},\"gauges\":{}}trailing",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
