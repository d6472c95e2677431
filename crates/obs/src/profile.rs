//! Wall-clock phase profiling — strictly outside the parity domain.
//!
//! A [`PhaseProfile`] accumulates `(calls, total ns)` per named phase.
//! Nothing it measures may ever influence an outcome, a trace, or any
//! other deterministic artifact. The engine records no scopes today
//! (`Swarm::set_profiler` is a no-op); the benchmark driver installs a
//! handle and reads its totals.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Accumulated wall time for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall time across all calls, in nanoseconds.
    pub total_ns: u64,
}

/// Shared single-threaded handle — how the engine carries a profiler.
pub type ProfileHandle = Rc<RefCell<PhaseProfile>>;

/// Named wall-clock phase accumulators.
#[derive(Debug, Default)]
pub struct PhaseProfile {
    phases: BTreeMap<&'static str, PhaseStat>,
}

impl PhaseProfile {
    /// An empty profile.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `PhaseProfile::new` behind the shared handle.
    #[must_use]
    pub fn shared() -> ProfileHandle {
        Rc::new(RefCell::new(Self::new()))
    }

    /// Adds one call of `ns` nanoseconds to `phase`.
    pub(crate) fn record(&mut self, phase: &'static str, ns: u64) {
        let stat = self.phases.entry(phase).or_default();
        stat.calls += 1;
        stat.total_ns += ns;
    }

    /// Adds the wall time since `start` to `phase`.
    pub fn record_since(&mut self, phase: &'static str, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(phase, ns);
    }

    /// The accumulated stat for `phase`, if it ever ran.
    #[must_use]
    pub fn get(&self, phase: &str) -> Option<PhaseStat> {
        self.phases.get(phase).copied()
    }

    /// Total nanoseconds recorded for `phase` (0 if it never ran).
    #[must_use]
    pub fn total_ns(&self, phase: &str) -> u64 {
        self.get(phase).map_or(0, |s| s.total_ns)
    }

    /// A human-readable multi-line report (`phase  calls  total ms`).
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, stat) in &self.phases {
            let _ = writeln!(
                out,
                "{name:<24} {:>8} calls {:>12.3} ms",
                stat.calls,
                stat.total_ns as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        let mut p = PhaseProfile::new();
        p.record("generate", 100);
        p.record("generate", 50);
        p.record("commit", 7);
        assert_eq!(
            p.get("generate"),
            Some(PhaseStat {
                calls: 2,
                total_ns: 150
            })
        );
        assert_eq!(p.total_ns("commit"), 7);
        assert_eq!(p.total_ns("never"), 0);
        let names: Vec<_> = p.phases.keys().copied().collect();
        assert_eq!(names, vec!["commit", "generate"]);
        assert!(p.report().contains("generate"));
    }

    #[test]
    fn record_since_measures_something() {
        let mut p = PhaseProfile::new();
        let start = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        p.record_since("work", start);
        assert_eq!(p.get("work").unwrap().calls, 1);
    }
}
